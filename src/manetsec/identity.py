"""Pre-distributed identity registry.

A node's identity is the hash of its signing public key, so presenting a key
that matches a claimed id is self-certifying; the registry pins the
encryption key and address token against substitution.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Tuple

from .crypto import DIGEST_BYTES, NodeKeys, digest
from .wire import encode_public


class UnknownIdentityError(KeyError):
    pass


def derive_id(signing_public: Tuple[int, int]) -> bytes:
    return digest(encode_public(signing_public))


class NodeIdentity:
    """One registered node.

    `encryption` returns the node's encryption public key and is called on
    each read of `encryption_public`, so a key made on first use (see
    crypto.NodeKeys) is made only when someone encrypts to the node.
    """

    def __init__(self, node_id: bytes, signing_public: Tuple[int, int],
                 encryption: Callable[[], Tuple[int, int]], ip: str):
        self.node_id = node_id
        self.signing_public = signing_public
        self._encryption = encryption
        self.ip = ip

    @classmethod
    def from_keys(cls, keys: NodeKeys, ip: str) -> "NodeIdentity":
        public = keys.signing.public
        return cls(derive_id(public), public, lambda: keys.encryption.public,
                   ip)

    @property
    def encryption_public(self) -> Tuple[int, int]:
        return self._encryption()


class Registry:
    def __init__(self) -> None:
        self._by_id: Dict[bytes, NodeIdentity] = {}
        self._by_ip: Dict[str, NodeIdentity] = {}

    def add(self, ident: NodeIdentity) -> None:
        if len(ident.node_id) != DIGEST_BYTES:
            raise ValueError("node id must be %d bytes" % DIGEST_BYTES)
        if derive_id(ident.signing_public) != ident.node_id:
            raise ValueError("node id does not match signing key for %s"
                             % ident.ip)
        if ident.node_id in self._by_id:
            raise ValueError("duplicate node id for %s" % ident.ip)
        if ident.ip in self._by_ip:
            raise ValueError("duplicate address token %s" % ident.ip)
        self._by_id[ident.node_id] = ident
        self._by_ip[ident.ip] = ident

    def get(self, node_id: bytes) -> NodeIdentity:
        ident = self._by_id.get(node_id)
        if ident is None:
            raise UnknownIdentityError(node_id.hex())
        return ident

    def by_ip(self, ip: str) -> NodeIdentity:
        ident = self._by_ip.get(ip)
        if ident is None:
            raise UnknownIdentityError(ip)
        return ident

    def entries(self) -> List[NodeIdentity]:
        return sorted(self._by_id.values(), key=lambda n: n.ip)


def registry_to_json(reg: Registry) -> str:
    entries = []
    for ident in reg.entries():
        entries.append({
            "id_hex": ident.node_id.hex(),
            "N_hex": "%x" % ident.signing_public[0],
            "e_hex": "%x" % ident.signing_public[1],
            "PK_N_hex": "%x" % ident.encryption_public[0],
            "PK_e_hex": "%x" % ident.encryption_public[1],
            "ip": ident.ip,
        })
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def registry_from_json(text: str) -> Registry:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError("registry is not valid JSON: %s" % err) from None
    if not isinstance(doc, list):
        raise ValueError("registry document must be an array of entries")
    reg = Registry()
    required = {"id_hex", "N_hex", "e_hex", "PK_N_hex", "PK_e_hex", "ip"}
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ValueError("entry %d must be an object, got %s"
                             % (i, type(entry).__name__))
        if not required.issubset(entry):
            missing = required - set(entry)
            raise ValueError("entry %d missing fields: %s"
                             % (i, ", ".join(sorted(missing))))
        try:
            node_id = bytes.fromhex(entry["id_hex"])
            signing = (int(entry["N_hex"], 16), int(entry["e_hex"], 16))
            encryption = (int(entry["PK_N_hex"], 16),
                          int(entry["PK_e_hex"], 16))
        except ValueError:
            raise ValueError("entry %d has malformed hex" % i) from None
        ident = NodeIdentity(node_id, signing,
                             lambda encryption=encryption: encryption,
                             entry["ip"])
        reg.add(ident)   # re-derives and checks the id
    return reg

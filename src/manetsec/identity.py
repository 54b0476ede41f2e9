"""Pre-distributed identity registry.

A node's identity is the hash of its signing public key, so presenting a key
that matches a claimed id is self-certifying; the registry pins the
encryption key and address token against substitution. A registry is made
from the nodes' keys and written as JSON (`keygen`); none is read back.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .crypto import NodeKeys, digest
from .wire import encode_public


class UnknownIdentityError(KeyError):
    pass


def derive_id(signing_public: Tuple[int, int]) -> bytes:
    """The node id of a signing key's holder: the hash of the key's
    encoding (wire.encode_public)."""
    return digest(encode_public(signing_public))


class NodeIdentity:
    """One registered node, made from its keys, so its id is the hash of
    its signing key by construction. It keeps that key's encoding,
    `key_bytes`, which every signer hash of the node ends with, so no check
    of the node's signatures encodes it again, and no router or attacker
    derives its own id.

    `encryption_public` reads the keys on each access, so an encryption pair
    made on first use (see crypto.NodeKeys) is made only when someone
    encrypts to the node.
    """

    def __init__(self, keys: NodeKeys, ip: str):
        self._keys = keys
        self.signing_public = keys.signing.public
        self.key_bytes = encode_public(self.signing_public)
        self.node_id = digest(self.key_bytes)
        self.ip = ip

    @property
    def encryption_public(self) -> Tuple[int, int]:
        return self._keys.encryption.public


class Registry:
    def __init__(self) -> None:
        self._by_id: Dict[bytes, NodeIdentity] = {}
        self._by_ip: Dict[str, NodeIdentity] = {}

    def add(self, ident: NodeIdentity) -> None:
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

    def find_ip(self, ip: str) -> Optional[NodeIdentity]:
        """by_ip without the raise: None for an unregistered address, which
        the data path meets once per frame to or from one."""
        return self._by_ip.get(ip)

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

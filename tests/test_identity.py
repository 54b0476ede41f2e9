"""Registry tests: id derivation, lookups and checks, JSON output."""

import hashlib
import json

import pytest

from manetsec import crypto, identity, wire
from manetsec.identity import NodeIdentity, Registry, UnknownIdentityError


def _fields(ident):
    return (ident.node_id, ident.signing_public, ident.encryption_public,
            ident.ip)


def _node(seed, ip, key_bits=128):
    keys = crypto.generate_node_keys(seed, key_bits=key_bits)
    ident = NodeIdentity(keys, ip)
    assert ident.node_id == identity.derive_id(keys.signing.public)
    assert ident.signing_public == keys.signing.public
    assert ident.encryption_public == keys.encryption.public
    return ident, keys.signing, keys.encryption


def test_derive_id_matches_documented_concatenation():
    # oracle: sha256 over length-prefixed big-endian N then e
    node_id = identity.derive_id((187, 7))
    blob = b"\x00\x00\x00\x01\xbb" + b"\x00\x00\x00\x01\x07"
    assert node_id == hashlib.sha256(blob).digest()
    assert len(node_id) == 32


def test_an_identity_keeps_the_key_bytes_its_id_hashes():
    ident, signing, _ = _node(3, "n0")
    assert ident.key_bytes == wire.encode_public(signing.public)
    assert ident.node_id == hashlib.sha256(ident.key_bytes).digest()


def test_derive_id_distinguishes_keys():
    assert identity.derive_id((187, 7)) != identity.derive_id((143, 7))
    assert identity.derive_id((187, 7)) != identity.derive_id((187, 5))


def test_registry_add_and_lookup():
    ident, _, _ = _node(1, "n0")
    reg = Registry()
    reg.add(ident)
    assert reg.get(ident.node_id) is ident
    assert reg.by_ip("n0") is ident
    with pytest.raises(UnknownIdentityError):
        reg.get(b"\x00" * 32)
    with pytest.raises(UnknownIdentityError):
        reg.by_ip("n9")


def test_unknown_lookups_raise_one_key_error_naming_the_key():
    ident, _, _ = _node(1, "n0")
    reg = Registry()
    reg.add(ident)
    missing = b"\x01" * 32
    for lookup, key, name in ((reg.get, missing, missing.hex()),
                              (reg.by_ip, "n9", "n9")):
        with pytest.raises(UnknownIdentityError) as caught:
            lookup(key)
        err = caught.value
        assert isinstance(err, KeyError)
        assert err.args == (name,)
        assert str(err) == repr(name)
        assert err.__cause__ is None
        assert err.__context__ is None   # raised once, not re-raised


def test_registry_rejects_duplicates_and_bad_ids():
    a, _, _ = _node(1, "n0")
    reg = Registry()
    reg.add(a)
    same_keys = NodeIdentity(crypto.generate_node_keys(1, key_bits=128), "n2")
    assert same_keys.node_id == a.node_id
    with pytest.raises(ValueError, match="duplicate node id"):
        reg.add(same_keys)
    with pytest.raises(ValueError, match="duplicate address token n0"):
        reg.add(NodeIdentity(crypto.generate_node_keys(2, key_bits=128),
                             "n0"))
    assert reg.entries() == [a]


def test_json_round_trip_and_stability():
    reg = Registry()
    for seed, ip in ((1, "n0"), (2, "n1"), (3, "n2")):
        ident, _, _ = _node(seed, ip)
        reg.add(ident)
    text1 = identity.registry_to_json(reg)
    text2 = identity.registry_to_json(reg)
    assert text1 == text2
    entries = json.loads(text1)
    assert [e["ip"] for e in entries] == ["n0", "n1", "n2"]
    for e in entries:
        written = (bytes.fromhex(e["id_hex"]),
                   (int(e["N_hex"], 16), int(e["e_hex"], 16)),
                   (int(e["PK_N_hex"], 16), int(e["PK_e_hex"], 16)), e["ip"])
        assert written == _fields(reg.by_ip(e["ip"]))


def test_json_is_lowercase_hex_array():
    reg = Registry()
    ident, _, _ = _node(1, "n0")
    reg.add(ident)
    doc = json.loads(identity.registry_to_json(reg))
    assert isinstance(doc, list)
    entry = doc[0]
    assert set(entry) == {"id_hex", "N_hex", "e_hex", "PK_N_hex", "PK_e_hex",
                          "ip"}
    for field in ("id_hex", "N_hex", "e_hex", "PK_N_hex", "PK_e_hex"):
        val = entry[field]
        assert val == val.lower()
        assert not val.startswith("0x")
    assert entry["ip"] == "n0"


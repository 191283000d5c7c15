"""Unit tests for the symbolic signature scheme and PKI."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.signatures import (
    Signature,
    SignatureError,
    collect_signatures,
    verify,
)


@pytest.fixture()
def pki():
    return PublicKeyInfrastructure(4)


class TestPki:
    def test_issues_key_pairs_for_all_nodes(self, pki):
        for node_id in range(pki.n):
            assert pki.key_pair(node_id).node_id == node_id

    def test_rejects_unknown_node(self, pki):
        with pytest.raises(KeyError):
            pki.key_pair(7)

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            PublicKeyInfrastructure(0)

    def test_two_pkis_issue_distinct_tokens(self):
        a = PublicKeyInfrastructure(2)
        b = PublicKeyInfrastructure(2)
        # Both can sign for node 0; signatures verify independently.
        assert verify(a.key_pair(0).sign("m"), 0, "m")
        assert verify(b.key_pair(0).sign("m"), 0, "m")


class TestSignatures:
    def test_sign_verify_roundtrip(self, pki):
        signature = pki.key_pair(1).sign(("pulse", 3))
        assert verify(signature, 1, ("pulse", 3))

    def test_verify_rejects_wrong_signer(self, pki):
        signature = pki.key_pair(1).sign("m")
        assert not verify(signature, 2, "m")

    def test_verify_rejects_wrong_message(self, pki):
        signature = pki.key_pair(1).sign("m")
        assert not verify(signature, 1, "other")

    def test_forging_raises(self, pki):
        with pytest.raises(SignatureError):
            Signature(0, "m", object())

    def test_key_identity_is_signer_and_value(self, pki):
        first = pki.key_pair(2).sign("m")
        second = pki.key_pair(2).sign("m")
        assert first.key() == second.key()

    def test_key_differs_across_messages(self, pki):
        assert (
            pki.key_pair(2).sign("a").key() != pki.key_pair(2).sign("b").key()
        )

    def test_cross_pki_token_cannot_sign_other_identity(self):
        a = PublicKeyInfrastructure(3)
        stolen = a.key_pair(0)._token
        with pytest.raises(SignatureError):
            Signature(1, "m", stolen)


class TestCollectSignatures:
    def test_collects_from_plain_signature(self, pki):
        signature = pki.key_pair(0).sign("m")
        assert list(collect_signatures(signature)) == [signature]

    def test_collects_from_nested_containers(self, pki):
        s1 = pki.key_pair(0).sign("a")
        s2 = pki.key_pair(1).sign("b")
        payload = {"x": [s1, (s2,)], "y": "no-sig"}
        assert set(collect_signatures(payload)) == {s1, s2}

    def test_collects_from_objects_with_signatures_method(self, pki):
        s1 = pki.key_pair(0).sign("a")

        class Payload:
            def signatures(self):
                return (s1,)

        assert list(collect_signatures(Payload())) == [s1]

    def test_non_signature_payloads_yield_nothing(self):
        assert list(collect_signatures(42)) == []
        assert list(collect_signatures("hello")) == []
        assert list(collect_signatures([1, 2, {"a": "b"}])) == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 100)), max_size=8
        )
    )
    def test_collect_finds_every_minted_signature(self, spec):
        pki = PublicKeyInfrastructure(4)
        signatures = [
            pki.key_pair(signer).sign(("v", value)) for signer, value in spec
        ]
        nested = [signatures[: len(signatures) // 2],
                  tuple(signatures[len(signatures) // 2 :])]
        collected = list(collect_signatures(nested))
        assert sorted(s.key() for s in collected) == sorted(
            s.key() for s in signatures
        )

"""Tests for the synchronous rounds (run on the event engine) and their
rushing adversary."""

import pytest

from repro.sim.errors import (
    ConfigurationError,
    ForgeryError,
    SimulationError,
)
from repro.sync.round_model import (
    BROADCAST,
    RoundMessage,
    SyncAdversary,
    SyncNode,
    SynchronousNetwork,
)


class CollectorNode(SyncNode):
    """Broadcasts its id each round; collects everything received."""

    def __init__(self):
        super().__init__()
        self.inboxes = []

    def begin_round(self, round_no):
        return {BROADCAST: ("tag", self.ctx.node_id, round_no)}

    def end_round(self, round_no, inbox):
        self.inboxes.append(dict(inbox))


class SignerNode(CollectorNode):
    def begin_round(self, round_no):
        return {BROADCAST: self.ctx.sign(("r", round_no))}


def make_network(n=4, f=1, faulty=(), adversary=None, node_cls=CollectorNode):
    nodes = {v: node_cls() for v in range(n) if v not in set(faulty)}
    return (
        SynchronousNetwork(nodes, n, f, faulty, adversary),
        nodes,
    )


class TestRounds:
    def test_broadcast_reaches_everyone_including_self(self):
        network, nodes = make_network()
        network.run(1)
        for v, node in nodes.items():
            assert set(node.inboxes[0]) == {0, 1, 2, 3}
            assert node.inboxes[0][v] == ("tag", v, 1)

    def test_directed_sends(self):
        class Directed(CollectorNode):
            def begin_round(self, round_no):
                if self.ctx.node_id == 0:
                    return {1: "direct"}
                return {}

        network, nodes = make_network(node_cls=Directed)
        network.run(1)
        assert nodes[1].inboxes[0] == {0: "direct"}
        assert nodes[2].inboxes[0] == {}

    def test_faulty_nodes_do_not_run_protocol(self):
        network, nodes = make_network(faulty=[3])
        network.run(1)
        assert 3 not in nodes
        for node in nodes.values():
            assert 3 not in node.inboxes[0]

    def test_too_many_corruptions_rejected(self):
        with pytest.raises(ConfigurationError):
            make_network(f=1, faulty=[2, 3])

    def test_run_returns_outputs(self):
        class OneShot(CollectorNode):
            def end_round(self, round_no, inbox):
                self.output = len(inbox)

        network, _nodes = make_network(node_cls=OneShot)
        outputs = network.run(1)
        assert outputs == {0: 4, 1: 4, 2: 4, 3: 4}


class TestRushingAdversary:
    def test_adversary_sees_current_round_messages(self):
        # It answers once the round's honest messages reached the faulty
        # nodes, and sees exactly those.
        observed = []

        class Peek(SyncAdversary):
            def round_messages(self, ctx, round_no, honest_messages):
                observed.append(
                    [(m.src, m.dst, m.payload) for m in honest_messages]
                )
                return []

        network, _ = make_network(faulty=[3], adversary=Peek())
        network.run(1)
        assert observed == [[(v, 3, ("tag", v, 1)) for v in range(3)]]

    def test_adversary_messages_delivered_same_round(self):
        class Inject(SyncAdversary):
            def round_messages(self, ctx, round_no, honest_messages):
                return [RoundMessage(3, 0, "injected")]

        network, nodes = make_network(faulty=[3], adversary=Inject())
        network.run(1)
        assert nodes[0].inboxes[0][3] == "injected"

    def test_adversary_cannot_send_from_honest(self):
        class Spoof(SyncAdversary):
            def round_messages(self, ctx, round_no, honest_messages):
                return [RoundMessage(0, 1, "spoof")]

        network, _ = make_network(faulty=[3], adversary=Spoof())
        with pytest.raises(SimulationError, match="from honest node 0"):
            network.run(1)

    def test_rushing_can_replay_same_round_signature(self):
        class Replay(SyncAdversary):
            def round_messages(self, ctx, round_no, honest_messages):
                signature = honest_messages[0].payload
                return [RoundMessage(3, 0, ("replay", signature))]

        network, nodes = make_network(
            faulty=[3], adversary=Replay(), node_cls=SignerNode
        )
        network.run(1)
        sender, payload = 3, nodes[0].inboxes[0][3]
        assert payload[0] == "replay"

    def test_forgery_rejected(self):
        class Forge(SyncAdversary):
            def round_messages(self, ctx, round_no, honest_messages):
                from repro.crypto.pki import PublicKeyInfrastructure

                other = PublicKeyInfrastructure(4)
                return [
                    RoundMessage(3, 0, other.key_pair(0).sign("never-sent"))
                ]

        network, _ = make_network(
            faulty=[3], adversary=Forge(), node_cls=SignerNode
        )
        with pytest.raises(ForgeryError):
            network.run(1)

    def test_faulty_keys_always_available(self):
        class OwnKey(SyncAdversary):
            def round_messages(self, ctx, round_no, honest_messages):
                return [
                    RoundMessage(3, 0, ctx.sign_as(3, ("evil", round_no)))
                ]

        network, nodes = make_network(
            faulty=[3], adversary=OwnKey(), node_cls=SignerNode
        )
        network.run(1)
        assert nodes[0].inboxes[0][3].signer == 3

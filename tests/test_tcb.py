"""Unit tests for the TCB per-instance state machine (Figure 2)."""

import pytest

from repro.core.tcb import TcbInstance, TcbState, offset_estimate
from repro.sync.crusader import BOT


def make_instance(**overrides):
    defaults = dict(
        dealer=1,
        pulse_round=1,
        pulse_local=10.0,
        window=2.0,
        finalize_wait=0.8,  # d - 2u with d=1, u=0.1
        echo_rejection=True,
    )
    defaults.update(overrides)
    return TcbInstance(**defaults)


class TestAcceptance:
    def test_accepts_inside_window_and_requests_echo(self):
        instance = make_instance()
        actions = instance.on_direct(11.0)
        assert actions.echo
        assert actions.set_finalize_timer == pytest.approx(11.8)
        assert instance.state is TcbState.ACCEPTED

    def test_finalize_outputs_acceptance_time(self):
        instance = make_instance()
        instance.on_direct(11.0)
        instance.on_finalize()
        assert instance.state is TcbState.DONE
        assert instance.output == 11.0

    def test_ignores_direct_at_or_before_pulse(self):
        instance = make_instance()
        actions = instance.on_direct(10.0)
        assert not actions.echo
        assert instance.state is TcbState.WAITING

    def test_ignores_direct_after_window(self):
        instance = make_instance()
        actions = instance.on_direct(12.5)
        assert not actions.echo
        assert instance.state is TcbState.WAITING

    def test_accepts_exactly_at_window_close(self):
        """The Lemma 10 worst case arrives exactly at the bound."""
        instance = make_instance()
        actions = instance.on_direct(12.0)
        assert actions.echo
        assert instance.state is TcbState.ACCEPTED

    def test_second_direct_ignored_after_acceptance(self):
        instance = make_instance()
        instance.on_direct(11.0)
        actions = instance.on_direct(11.2)
        assert not actions.echo
        assert instance.accept_local == 11.0

    def test_timeout_outputs_bot(self):
        instance = make_instance()
        instance.on_window_end()
        assert instance.state is TcbState.DONE
        assert instance.output is BOT
        assert instance.reject_reason == "timeout"

    def test_window_end_after_acceptance_is_harmless(self):
        instance = make_instance()
        instance.on_direct(11.0)
        instance.on_window_end()
        assert instance.state is TcbState.ACCEPTED


class TestEchoRejection:
    def test_echo_within_guard_rejects(self):
        instance = make_instance()
        instance.on_direct(11.0)
        instance.on_echo(11.5)  # < 11.8 deadline
        assert instance.output is BOT
        assert instance.reject_reason == "echo-within-guard"

    def test_echo_at_exact_deadline_does_not_reject(self):
        instance = make_instance()
        instance.on_direct(11.0)
        instance.on_echo(11.8)
        assert instance.state is TcbState.ACCEPTED

    def test_echo_after_deadline_does_not_reject(self):
        instance = make_instance()
        instance.on_direct(11.0)
        instance.on_echo(11.9)
        instance.on_finalize()
        assert instance.output == 11.0

    def test_early_echo_then_direct_rejects(self):
        """An echo before the direct message proves someone saw it much
        earlier — rejection at acceptance time."""
        instance = make_instance()
        instance.on_echo(10.5)
        actions = instance.on_direct(11.0)
        assert actions.echo  # forwards first, per Figure 2's order
        assert instance.output is BOT
        assert instance.reject_reason == "echo-before-acceptance"

    def test_echo_at_or_before_pulse_is_ignored(self):
        instance = make_instance()
        instance.on_echo(10.0)
        instance.on_direct(11.0)
        instance.on_finalize()
        assert instance.output == 11.0

    def test_earliest_echo_tracked(self):
        instance = make_instance()
        instance.on_echo(11.9)
        instance.on_echo(11.2)
        instance.on_echo(11.6)
        assert instance.earliest_echo == 11.2

    def test_echo_ignored_when_done(self):
        instance = make_instance()
        instance.on_window_end()
        instance.on_echo(11.0)
        assert instance.output is BOT

    def test_ablation_disables_rejection(self):
        instance = make_instance(echo_rejection=False)
        instance.on_echo(10.5)
        instance.on_direct(11.0)
        instance.on_echo(11.1)
        instance.on_finalize()
        assert instance.output == 11.0


class TestOffsetEstimate:
    def test_formula(self):
        # Delta = h - H(p) - d + u - S
        value = offset_estimate(11.0, 10.0, d=1.0, u=0.1, s_bound=0.05)
        assert value == pytest.approx(1.0 - 1.0 + 0.1 - 0.05)

    def test_minimal_delay_gives_true_offset(self):
        """All rates 1, delay d-u, dealer offset S: estimate is exact."""
        d, u, s = 1.0, 0.1, 0.05
        p_v, p_u = 10.0, 10.02
        send = p_u + s  # dealer sends S after its pulse (rate 1)
        h = send + d - u
        estimate = offset_estimate(h, p_v, d, u, s)
        assert estimate == pytest.approx(p_u - p_v)

    def test_maximal_delay_adds_uncertainty(self):
        d, u, s = 1.0, 0.1, 0.05
        p_v, p_u = 10.0, 10.02
        h = p_u + s + d
        estimate = offset_estimate(h, p_v, d, u, s)
        assert estimate == pytest.approx(p_u - p_v + u)

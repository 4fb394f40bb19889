"""The traced run wraps and restores the package, and changes no result."""

import pytest

import run
import spans
import workloads

API = run.load_api()
SHORT_T_END = 40 * API.problems.IgnitionSurrogate().default_dt()


def _bindings():
    return {
        (owner, key): owner.__dict__[key]
        for module, attr in spans.TRACED.values()
        for owner, key in spans.bindings(module, attr)
    }


def test_every_wrapped_function_is_restored():
    before = _bindings()
    assert len(before) > len(spans.TRACED)  # names imported elsewhere are found
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(
                owner.__dict__[key] is not original for (owner, key), original in before.items()
            )
            raise RuntimeError("leaves the traced block early")
    assert all(owner.__dict__[key] is original for (owner, key), original in before.items())


@pytest.mark.parametrize(
    "make",
    [
        lambda s: workloads.Ignite(API, 3, s, t_end=SHORT_T_END),
        lambda s: workloads.CampaignTypeB(
            API, 5, s, rk_members=2, sdc_members=1, t_end=SHORT_T_END, window=300
        ),
        lambda s: workloads.ConvergeLinear(API, 0, s, t_end=2.0, sweeps=(2, 3)),
    ],
    ids=["ignite", "campaign-typeb", "converge-linear"],
)
def test_traced_pass_matches_untraced_pass(make, tmp_path):
    workload = make(str(tmp_path / "scratch"))
    workload.prepare()
    plain = workload.run_pass()
    tracer = spans.Tracer()
    with tracer:
        traced = workload.run_pass()
    assert [op.fingerprint() for op in traced.ops] == [op.fingerprint() for op in plain.ops]
    assert traced.artifact_bytes == plain.artifact_bytes
    assert len(plain.ops) == workload.ops_per_pass()
    totals = tracer.totals()
    assert totals["sdc.integrate_step"][0] > 0
    for calls, inclusive, own in totals.values():
        assert 0.0 <= own <= inclusive + 1e-9
    path = tmp_path / "spans.npz"
    tracer.dump(str(path))
    assert path.stat().st_size > 0

"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py

Each workload runs at its tiny size and prints every metric BENCHMARK.json
names; each gate trips when the output it checks is perturbed; a program
that raises is reported as incorrect, not as a benchmark error; the tracer
restores what it patched; the host-speed probe stays out of operation times;
and the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from nullflow import diffalg, nullcurve  # noqa: E402
from nullflow.diffalg import FlowPair, gen  # noqa: E402
from hostspeed import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Ctx  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0
    if trace:
        # Every zero printed is a layer or base this workload does not exercise.
        with open(os.path.join(ROOT, ".perfbench_out", workload + "-tiny",
                               "result-trace1.json")) as fh:
            absent = json.load(fh)["absent"]
        zeros = {name for name, value in result["metrics"].items() if value["value"] == 0}
        assert zeros <= set(absent)
        assert all("absent (printed as 0): %s," % name in done.stdout for name in absent)


def copy_benchmark(dest, with_sources: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=ignore)


def test_refuses_to_run_without_the_sources(tmp_path):
    copy_benchmark(tmp_path, with_sources=False)
    done = run_bench(str(tmp_path), "--workload", "hierarchy", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_program_that_raises_is_reported_incorrect(tmp_path):
    copy_benchmark(tmp_path, with_sources=True)
    with open(tmp_path / "src" / "nullflow" / "hierarchy.py", "a") as fh:
        fh.write("\n\ndef generate(*args, **kwargs):\n    raise RuntimeError('broken')\n")
    done = run_bench(str(tmp_path), "--workload", "hierarchy", "--seed", "1",
                     "--seconds", "1", "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert "RuntimeError: broken" in done.stdout


class Tamper(Ctx):
    """A Ctx that perturbs the output of one named operation before the gates see it."""

    def __init__(self, target: str, perturb):
        super().__init__()
        self.target, self.perturb = target, perturb

    def op(self, name, fn, *args, **kwargs):
        out = super().op(name, fn, *args, **kwargs)
        return self.perturb(out) if name == self.target else out


def failed_gates(workload: str, ctx: Ctx, workdir: str) -> set:
    w = WORKLOADS[workload]
    w.run_pass(w.make_inputs(5, True), ctx, workdir)
    return {f.split(":")[0].split("[")[0] for f in ctx.failures}


def rewrite_soliton_output(workdir: str, name: str, edit) -> None:
    path = os.path.join(workdir, "soliton", name)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def bump_last_k1(text: str) -> str:
    lines = text.splitlines()
    cells = lines[len(lines) // 2].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3)
    lines[len(lines) // 2] = ",".join(cells)
    return "\n".join(lines) + "\n"


def bump_mass(text: str) -> str:
    report = json.loads(text)
    report["mass_k1"][-1] += 1e-6
    return json.dumps(report)


def bump_time(text: str) -> str:
    report = json.loads(text)
    report["times"][-1] *= 0.5
    return json.dumps(report)


def truncate(path: str) -> None:
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


def bent_path(frame_path):
    """Tilt T towards W1, so <T,T> and <T,W1> leave their values by ~1e-6, 1e-3."""
    return dataclasses.replace(frame_path, tangent=frame_path.tangent + 1e-3 * frame_path.w1)


def scaled_first_flow(entries):
    e = entries[1]
    entries = list(entries)
    entries[1] = dataclasses.replace(e, flow=FlowPair(2 * e.flow.p1, 2 * e.flow.p2))
    return entries


def plus_k1(field):
    return field + nullcurve.LocalVectorField(gen("k1"), diffalg.zero(), diffalg.zero(),
                                              diffalg.zero())


PERTURBATIONS = {
    "soliton.exit_code": ("soliton_evolve", "simulate", lambda code: 1),
    "soliton.linf": ("soliton_evolve", "simulate", "k1.csv", bump_last_k1),
    "soliton.mass_drift": ("soliton_evolve", "simulate", "report.json", bump_mass),
    "soliton.t_end": ("soliton_evolve", "simulate", "report.json", bump_time),
    "curve0.gram_drift": ("frame_reconstruct", "curve", bent_path),
    "curve0.null_drift": ("frame_reconstruct", "curve", bent_path),
    "curve0.csv_rows": ("frame_reconstruct", "curve", "truncate"),
    "hierarchy.generate_sha256": ("hierarchy", "generate", scaled_first_flow),
    "hierarchy.reference_forms": ("hierarchy", "verify_reference_forms",
                                  lambda report: {**report, "ok": False}),
    "hierarchy.commute": ("hierarchy", "commute", lambda ok: False),
    "hierarchy.hs_sha256": ("hierarchy", "hs_classic_sigma",
                            lambda s: FlowPair(s.p1 + 1, s.p2, s.variables)),
    "hierarchy.recursion_routes": ("hierarchy", "recursion_direct",
                                   lambda f: FlowPair(f.p1 + gen("k1"), f.p2)),
    "fields.antisymmetry": ("field_brackets", "antisymmetry", plus_k1),
    "fields.curvature_identity": ("field_brackets", "curvature_identity", plus_k1),
    "fields.jacobi": ("field_brackets", "jacobi", plus_k1),
    "fields.bracket_flow": ("field_brackets", "bracket_flow",
                            lambda lr: (FlowPair(lr[0].p1 + 1, lr[0].p2), lr[1])),
}


@pytest.mark.parametrize("gate", sorted(PERTURBATIONS))
def test_perturbed_output_trips_the_gate(gate, tmp_path):
    workload, target, *how = PERTURBATIONS[gate]
    workdir = str(tmp_path)
    if len(how) == 2:  # the operation wrote a file; edit it after the call
        name, edit = how

        def perturb(out):
            rewrite_soliton_output(workdir, name, edit)
            return out
    elif how == ["truncate"]:
        def perturb(frame_path):
            truncate(os.path.join(workdir, "path_00.csv"))
            return frame_path
    else:
        perturb = how[0]
    assert gate in failed_gates(workload, Tamper(target, perturb), workdir)


def test_tracer_records_spans_and_restores_bindings():
    k1, k2 = gen("k1"), gen("k2")
    originals = (diffalg.DiffPoly.__mul__, diffalg.DiffPoly.__rmul__,
                 diffalg.total_derivative, nullcurve.total_derivative)
    tracer = Tracer()
    tracer.install()
    try:
        nullcurve.total_derivative(k1 * k2)
        assert 2 * k1 == k1 + k1
    finally:
        tracer.uninstall()
    assert (diffalg.DiffPoly.__mul__, diffalg.DiffPoly.__rmul__,
            diffalg.total_derivative, nullcurve.total_derivative) == originals
    m = tracer.layer_metrics()
    assert m["diffalg.mul.calls"] == 2  # k1 * k2 and the reflected 2 * k1
    assert m["diffalg.add.calls"] == 1
    assert m["diffalg.total_derivative.calls"] == 1
    assert m["diffalg.mul.term_pairs"] == 2
    assert m["diffalg.terms_out_peak"] == 2
    assert m["trace.spans"] == 4


def test_probe_time_is_left_out_of_operations():
    spent = [0.0]

    def op_with_a_probe_inside():
        time.sleep(0.2)
        started = time.perf_counter()
        time.sleep(0.1)  # stands for a probe that ran inside the operation
        spent[0] += time.perf_counter() - started

    ctx = Ctx(lambda: spent[0])
    ctx.op("op", op_with_a_probe_inside)
    (_, seconds), = ctx.ops
    assert abs(seconds - 0.2) < 0.05

    sampler = Sampler()
    sampler.start()
    try:
        time.sleep(0.35)
    finally:
        sampler.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.probes) >= 2 and sampler.spent >= sum(sampler.probes)

"""Golden lint output over a planted corpus.

The corpus below plants at least one positive and one negative for every
per-file and flow family (DET001-003, UNIT001-003, UNIT101-103,
OBS001-002, SUP001, plus the REG project rules it touches on the way).
The digest covers everything the lint package emits for it: the
violations of all rules and every per-file flow summary.  A refactor of
how the lint walks its trees must leave the digest unchanged.
"""

import ast
import collections
import hashlib
import json
import textwrap

import pytest

from repro.lint.core import LintProject, run_lint
from repro.lint.flow import engine

CORPUS = {
    # DET001-003 positives and negatives
    "src/repro/sources.py": """
        import random
        import time as _t

        import numpy as np

        def stamp():
            return _t.perf_counter()

        def jitter():
            a = np.random.rand()
            b = random.random()
            c = np.random.default_rng()
            d = np.random.default_rng(7).random()
            return a + b + d + c.random()

        def total():
            seen = set()
            acc = 0
            for x in {1, 2, 3}:
                seen.add(x)
            for x in seen:
                acc += x
            return acc + sum(list(frozenset([4, 5])))

        def tidy():
            seen = set()
            return [x for x in sorted(seen)] + [y for y in (1, 2)]
    """,
    # more DET001 positives, and one accepted by a suppression
    "src/repro/unreached.py": """
        import datetime
        import time

        def now():
            return time.time()

        def today():
            return datetime.date.today()

        def accepted():
            return time.monotonic()  # simlint: disable=DET001
    """,
    # the wall channel reads the host clock by design
    "src/repro/obs/trace.py": """
        import time

        def wall_now():
            return time.perf_counter()
    """,
    # UNIT001-003 and the UNIT101-103 flow families, in scope
    "src/repro/perfmodel/costs.py": """
        import dataclasses

        @dataclasses.dataclass
        class Budget:
            window: float = 0.0  # simlint: unit=s
            slack_us: float = 0.0

            def total_s(self, pad_s):
                return self.window + pad_s

            def wrong_s(self):
                return self.window + self.slack_us

        def mixed(t_s, lat_us):
            if t_s > lat_us:
                return t_s
            return t_s + lat_us

        def agreeing(t_s, u_s):
            return min(t_s, u_s) + max(t_s, u_s)

        def scaled(lat_us):
            x_s = lat_us * 1e-6
            y_s = lat_us
            return x_s + y_s

        def kernel_s(dur_us):
            return dur_us

        def copy_s(n_bytes, rate_gbps):
            return n_bytes / rate_gbps

        def fine_s(dur_s):
            return dur_s

        def latency_of(latency, bw):
            elapsed = latency * 2
            return elapsed + bw

        def named(latency_us):
            return latency_us

        def raw(dur_us):
            return dur_us

        def window_s(dur_us):
            return raw(dur_us)

        def window_ok_s(dur_s):
            return fine_s(dur_s)

        def looped_s(n):
            return looped_s(n - 1)

        def hold(dur_s):
            return dur_s

        def combine(t_s, n_bytes):
            return hold(t_s) + n_bytes

        def combine_ok(t_s):
            return hold(t_s) + t_s
    """,
    "src/repro/perfmodel/plan.py": """
        from repro.perfmodel.costs import fine_s, named

        def go(buf_bytes, dur_s):
            a = fine_s(buf_bytes)
            b = fine_s(dur_s)
            c = named(latency_us=dur_s)
            return a, b, c
    """,
    # the same mismatch outside perfmodel/hardware is out of scope
    "src/repro/misc.py": """
        def scale(latency_s):
            return latency_s * 2.0

        def go(buf_bytes):
            return scale(buf_bytes)
    """,
    # OBS001-002 inside the simulated serving stack
    "src/repro/serving/probe.py": """
        import time

        class Probe:
            def __init__(self, metrics, tracer):
                self.metrics = metrics
                self.tracer = tracer
                self.clock = 0.0

            def emit(self, name):
                self.metrics.counter("ttft")
                self.metrics.gauge("ttft_seconds")
                self.metrics.histogram(name)
                self.tracer.begin("step", 0.0)
                self.tracer.begin("step", self.clock)
                self.tracer.instant("tick", ts=time.perf_counter())
                self.tracer.end(self.clock + 1.0)
                self.tracer.wall_span("host")
    """,
    # outside OBS002 scope: literal timestamps are not its beat
    "src/repro/obs/report.py": """
        def draw(tracer, metrics):
            tracer.begin("x", 0.0)
            metrics.counter("rows_total")
            metrics.counter("rows")
    """,
    # SUP001: used, stale, unknown-id and file-level directives
    "src/repro/stale.py": """
        # simlint: disable-file=DET003
        import time

        def used():
            return time.time()  # simlint: disable=DET001

        def stale():
            return 1  # simlint: disable=DET002

        def typo():
            return 2  # simlint: disable=NOPE999

        def wrapped():
            return time.time(
            )  # simlint: disable=DET001
    """,
    # REG001/003/004 touch the experiment registry and the CLI docstring
    "src/repro/experiments/planted.py": """
        from repro.core.registry import experiment

        @experiment("fig98")
        def documented():
            return 0

        @experiment("fig99")
        def undocumented():
            return 0
    """,
    "src/repro/core/cli.py": '''
        """Planted CLI.

        Usage::

            repro run <id>
        """

        def build_parser(sub):
            sub.add_parser("run")
            sub.add_parser("secret")
    ''',
}

ROOT_FILES = {
    "EXPERIMENTS.md": "| fig98 | documented |\n",
    "BENCH_fig98.json": "{}\n",
    "BENCH_gone.json": "{}\n",
}

#: SHA-256 over the two outputs of :func:`lint_outputs`; any change to
#: what the lint reports moves it
GOLDEN_DIGEST = (
    "2d0c6cb06ba149fbe759f0f0276491ec2eaba516d2152c358999ee570c72ecbe")


@pytest.fixture(autouse=True)
def _no_disk_cache():
    engine.configure(cache=False)
    yield
    engine.configure()
    engine._MEMO.clear()


def plant(root) -> LintProject:
    for rel, text in CORPUS.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text).lstrip("\n"))
    for rel, text in ROOT_FILES.items():
        (root / rel).write_text(text)
    return LintProject(root)


def lint_outputs(root) -> dict:
    project = plant(root)
    violations = run_lint(root, project=project)
    program = engine.program_for(project)
    return {
        "violations": [[v.rule, v.severity, v.path, v.line, v.col,
                        v.end_line, v.snippet, v.message]
                       for v in violations],
        "summaries": {rel: program.files[rel].to_dict()
                      for rel in sorted(program.files)},
    }


def digest(outputs: dict) -> str:
    blob = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_digest(tmp_path):
    outputs = lint_outputs(tmp_path)
    # the corpus plants a positive for every family (the negatives show
    # only through the digest)
    fired = {v[0] for v in outputs["violations"]}
    for rule in ("DET001", "DET002", "DET003", "UNIT001", "UNIT002",
                 "UNIT003", "UNIT101", "UNIT102", "UNIT103", "OBS001",
                 "OBS002", "SUP001", "REG001", "REG002", "REG003",
                 "REG004"):
        assert rule in fired, rule
    assert digest(outputs) == GOLDEN_DIGEST


def test_each_module_is_walked_once(tmp_path, monkeypatch):
    walks = collections.Counter()
    real_walk = ast.walk

    def counting_walk(node):
        if isinstance(node, ast.Module):
            walks[id(node)] += 1
        return real_walk(node)

    project = plant(tmp_path)
    monkeypatch.setattr(ast, "walk", counting_walk)
    run_lint(tmp_path, project=project)
    engine.program_for(project)
    monkeypatch.undo()

    assert walks, "no module tree was walked"
    assert max(walks.values()) == 1, walks
    for sf in project.files:
        assert sf.nodes == list(ast.walk(sf.tree)), sf.rel

"""The four workloads.

Each workload makes its inputs from the seed, and splits one operation into
``inputs(i)`` (untimed), ``call(inp)`` (timed: the calls into softmech) and
``check(i, inp, out, counts)`` (untimed).  ``check`` returns two problem
lists: wrong outputs, and the known-fault failures that count as failed
operations.  Operations come in rounds of ``round_ops``; a run does whole
rounds, so the failed share is the same in every run.

Every call into softmech goes through the package's module attributes, so
the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checkers
import refs


class SelectorStream:
    """Single selector calls through MechanismSpec, all kinds at all sizes."""

    name = "selector_stream"
    KINDS = (("exp", 1.0), ("pow", 2.0), ("plsoftmax", 1.0), ("logplsoftmax", 0.5), ("sparsemax", None))
    DIMS = (4, 16, 64, 1024)
    CALLS = 80  # per (kind, d) in one operation
    POOL = 32  # input vectors per d and domain
    round_ops = 10  # the last operation of a round is the offset slice
    # The offset slice: plsoftmax at d = 1024 on N(0, 0.5) + 1e10, drawn from
    # a fixed seed so that it fails on every run until plsoftmax subtracts
    # its max before the suffix sum.
    OFFSET = 1e10
    OFFSET_SEED = 1602_02068

    def __init__(self, sm, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.specs = [sm.MechanismSpec(kind, param) for kind, param in self.KINDS]
        self.pools = {}
        for d in self.DIMS:
            self.pools[False, d] = rng.normal(0.0, 1.0, size=(self.POOL, d))
            self.pools[True, d] = np.exp(rng.normal(0.0, 1.0, size=(self.POOL, d)))
        self.offset_rows = np.random.default_rng(self.OFFSET_SEED).normal(0.0, 0.5, (self.CALLS, 1024)) + self.OFFSET
        self.refs: dict[tuple, np.ndarray] = {}  # (kind, d) -> reference outputs of the pool

    def inputs(self, i: int):
        """One (spec, rows of x, pool rows) group per (kind, d); pool rows is
        None for the offset slice."""
        offset_op = i % self.round_ops == self.round_ops - 1
        rows = (i * self.CALLS + np.arange(self.CALLS)) % self.POOL
        groups = []
        for spec in self.specs:
            for d in self.DIMS:
                if offset_op and spec.kind == "plsoftmax" and d == 1024:
                    groups.append((spec, self.offset_rows, None))
                else:
                    pool = self.pools[spec.kind in ("pow", "logplsoftmax"), d]
                    groups.append((spec, pool[rows], rows))
        return groups

    def call(self, inp):
        return [[spec(x) for x in xs] for spec, xs, _ in inp]

    def check(self, i, inp, out, counts):
        wrong, failed = [], []
        for (spec, xs, rows), ps in zip(inp, out):
            ps = np.array(ps)
            if rows is None:
                shifted_xs = xs - xs.max(axis=1, keepdims=True)
                shifted = np.array([spec(x) for x in shifted_xs])
                wrong += checkers.check_selector(spec.kind, spec.param, shifted_xs, shifted)
                wrong += checkers.check_simplex(ps) + checkers.check_support(spec.kind, spec.param, xs, ps)
                failed += checkers.check_translation(ps, shifted)
                continue
            key = (spec.kind, xs.shape[1])
            if key not in self.refs:
                pool = self.pools[spec.kind in ("pow", "logplsoftmax"), xs.shape[1]]
                self.refs[key] = np.array([refs.selector_ref(spec.kind, spec.param, x) for x in pool])
            wrong += checkers.check_selector(spec.kind, spec.param, xs, ps, self.refs[key][rows])
        return wrong, failed


class LipschitzLab:
    """One empirical_lipschitz call per operation, cycling six configurations.

    Trial counts differ per configuration so that each call costs about the
    same, a median of 110 to 120 ms at reference speed: the operations are of
    one cost class, and few enough in a run (about 200) that the
    eleventh-longest is not set by the run's rarest hiccups.
    """

    name = "lipschitz_lab"
    CONFIGS = (
        ("plsoftmax", 1.0, 16, "l1", "l1", 1040),
        ("plsoftmax", 1.0, 16, "l2", "l2", 1040),
        ("plsoftmax", 1.0, 16, "linf", "l1", 1020),
        ("exp", 1.0, 16, "l2", "dinf", 1140),
        ("exp", 1.0, 16, "linf", "l1", 1740),
        ("sparsemax", None, 64, "l2", "l1", 1200),
    )
    round_ops = len(CONFIGS)

    def __init__(self, sm, seed: int, workdir: str):
        self.sm = sm
        self.seed = seed
        self.specs = [sm.MechanismSpec(kind, param) for kind, param, *_ in self.CONFIGS]

    def inputs(self, i: int):
        c = i % len(self.CONFIGS)
        return c, self.seed * 1_000_000 + i

    def call(self, inp):
        c, rng_seed = inp
        _, _, d, dom, rng_metric, trials = self.CONFIGS[c]
        return self.sm.smoothness.empirical_lipschitz(self.specs[c], d, dom, rng_metric, trials, rng_seed)

    def check(self, i, inp, est, counts):
        kind, param, d, dom, rng_metric, trials = self.CONFIGS[inp[0]]
        counts["smoothness.trials"] += trials
        counts["smoothness.pairs_evaluated"] += est.trials
        return checkers.check_lipschitz(kind, param, d, dom, rng_metric, est), []


class LossProbes:
    """subgradient_check on fresh pairs (x, q = plsoftmax(z)), CHECKS per
    operation: one check takes about 13 ms, short enough that host
    preemption decides the tail; six make it 50 to 80 ms."""

    name = "loss_probes"
    D = 32
    DELTA = 1.0
    CHECKS = 6
    # subgradient_check differentiates with a central step of 1e-5 but skips
    # only points with a hinge argument within 1e-7 of its corner; in
    # between, the difference straddles the corner and the reported error is
    # wrong (CHANGES.md, FOUND).  Such x are drawn again, at most MAX_DRAWS
    # times.
    CORNER_MARGIN = 2e-5
    MAX_DRAWS = 8
    round_ops = 1

    def __init__(self, sm, seed: int, workdir: str):
        self.sm = sm
        self.seed = seed

    def hinge_margin(self, x, q) -> float:
        """Distance of the nearest order or support hinge argument from its corner."""
        order = np.argsort(-q, kind="stable")
        last = min(int(np.count_nonzero(q > 0)), x.size - 1)
        xs = x[order]
        top = x[int(np.argmax(q))]
        support = q > 0
        args = np.concatenate([xs[1:last + 1] - xs[:last], top - x[support] - self.DELTA,
                               x[~support] - top + self.DELTA])
        return float(np.abs(args).min())

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        pairs = []
        for _ in range(self.CHECKS):
            for _ in range(self.MAX_DRAWS):
                x = rng.normal(0.0, 2.0 * self.DELTA, size=self.D)
                q = self.sm.plsoftmax(rng.normal(0.0, 2.0 * self.DELTA, size=self.D), self.DELTA)
                if self.hinge_margin(x, q) > self.CORNER_MARGIN:
                    break
            pairs.append((x, q))
        return pairs

    def call(self, inp):
        return [self.sm.classification.subgradient_check(x, q, self.DELTA) for x, q in inp]

    def check(self, i, inp, errs, counts):
        wrong = []
        loss = self.sm.classification.loss_total
        for (x, q), err in zip(inp, errs):
            if err is None:
                counts["classification.points_skipped"] += 1
            at_ref = loss(x, refs.plsoftmax_ref(x, self.DELTA), self.DELTA)
            wrong += checkers.check_loss(err, loss(x, q, self.DELTA), at_ref)
        return wrong, []


class ApplicationsCli:
    """One in-process `softmech submodular` run and one `softmech auction
    --audit` run per operation, writing to and reading back from workdir."""

    name = "applications_cli"
    N_SETS, UNIVERSE, K, DROP = 300, 2000, 5, 0.01
    MECHS = (("exp", 0.02), ("pow", 2.0))
    SEEDS_PER_OP = 3
    N_BIDDERS, H, GRID_DELTA, GRID_FLOOR, GRID_SIZE = 4, 1.0, 0.25, 0.14, 7
    # delta above the largest possible revenue, N_BIDDERS * H * (1 - GRID_DELTA):
    # every grid price stays in the support, so the audit's work (it skips
    # prices of probability 0) does not depend on the seed's bids.
    AUCTION_DELTA, RESOLUTION = 4.0, 101
    N_BID_FILES = 8
    round_ops = 1

    def __init__(self, sm, seed: int, workdir: str):
        self.sm = sm
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.bids = []
        for b in range(self.N_BID_FILES):
            bids = [float(v) for v in rng.uniform(0.0, self.H, self.N_BIDDERS)]
            with open(self._path(f"bids{b}.json"), "w", encoding="utf-8") as fh:
                json.dump({"H": self.H, "k": self.N_BIDDERS, "bids": bids}, fh)
            self.bids.append(bids)
        self.instance = None  # built on first check, from the public API

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def inputs(self, i: int):
        first = self.seed * 100_000 + self.SEEDS_PER_OP * i
        seeds = list(range(first, first + self.SEEDS_PER_OP))
        mechs = ",".join(f"{kind}:lambda={param:g}" for kind, param in self.MECHS)
        submodular = [
            "submodular", "--num-sets", str(self.N_SETS), "--universe", str(self.UNIVERSE),
            "--instance-seed", str(self.seed), "--k", str(self.K), "--mechs", mechs,
            "--drop-prob", str(self.DROP), "--seeds", f"{seeds[0]}-{seeds[-1]}",
            "--out", self._path("frontier.csv"),
        ]
        auction = [
            "auction", "--instance-file", self._path(f"bids{i % self.N_BID_FILES}.json"),
            "--grid-delta", str(self.GRID_DELTA), "--grid-floor", str(self.GRID_FLOOR),
            "--mech", f"plsoftmax:delta={self.AUCTION_DELTA:g}", "--audit",
            "--resolution", str(self.RESOLUTION), "--audit-out", self._path("audit.csv"),
            "--out", self._path("auction.json"),
        ]
        return seeds, i % self.N_BID_FILES, submodular, auction

    def call(self, inp):
        _, _, submodular, auction = inp
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = (self.sm.cli.main(submodular), self.sm.cli.main(auction))
        return codes, stdout.getvalue()

    def _read(self, name: str, counts) -> str:
        with open(self._path(name), encoding="utf-8") as fh:
            text = fh.read()
        counts["cli.bytes_written"] += len(text.encode("utf-8"))
        return text

    def check(self, i, inp, out, counts):
        seeds, bid_file, _, _ = inp
        codes, stdout = out
        if codes != (0, 0):
            return [f"exit codes {codes}: {stdout.strip()}"], []
        wrong = []
        for line in stdout.splitlines():
            summary = json.loads(line)
            if summary["failures"]:
                wrong.append(f"{summary['command']} reports failed checks {summary['failures']}")
        problems, rows = checkers.check_frontier(
            self._read("frontier.csv", counts), [kind for kind, _ in self.MECHS], seeds)
        wrong += problems
        if not problems:
            row = rows[i % len(rows)]
            kind, param = row["mechanism"], dict(self.MECHS)[row["mechanism"]]
            sub = self.sm.submodular
            if self.instance is None:
                self.instance = sub.synthetic_coverage_instance(self.N_SETS, self.UNIVERSE, self.seed)
            thinned = sub.drop_elements(self.instance, self.DROP, self.sm.seeding.spawn_rng(int(row["seed"]), 0))
            wrong += checkers.check_l1_row(row, kind, param, self.instance.sets, thinned.sets)
        payload = json.loads(self._read("auction.json", counts))
        wrong += checkers.check_auction(
            payload, self.bids[bid_file], self.H, self.GRID_DELTA, self.GRID_SIZE, self.AUCTION_DELTA,
            self._read("audit.csv", counts), self.N_BIDDERS * self.RESOLUTION)
        return wrong, []


WORKLOADS = {w.name: w for w in (SelectorStream, LipschitzLab, LossProbes, ApplicationsCli)}

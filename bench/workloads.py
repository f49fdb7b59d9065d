"""The three workloads: seeded inputs, one operation, and its correctness oracle.

Inputs are made from the seed before the timed loop. An operation returns
what the library produced; ``check`` compares it with the environment that
generated the input and returns None or a failure. The oracle tolerance is
1e-8 throughout. ``standalone`` re-times single layers on the operation's own
matrices in traced runs; those spans sit outside the operation's latency.

Operation ``i`` runs input ``i % POOL``, so the loop passes over the pool
again and again and every input runs several times in one run.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import beliefscape as bs
from beliefscape.fileio import (
    dumps_report,
    landscape_from_doc,
    landscape_to_doc,
    load_landscape,
    save_environment,
    save_landscape,
)

TOL = 1e-8


@dataclass(frozen=True)
class Failure:
    reason: str


def _gap(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b)))


# Shapes cycle in a fixed order and the seed picks only the values: with
# random shapes the mix, and with it the median latency, moved between seeds.
SMALL_SHAPES = [(n, m) for n in range(2, 6) for m in range(n, 9)]  # states x signals
WEAK_COND = 1e3  # cond(B) from which lib-small counts an input as weakly informative


def _cond(env) -> float:
    return float(np.linalg.cond(bs.generate_landscape(env).B.entries))


def well_conditioned_environment(rng, n_states: int, n_signals: int) -> bs.InformationalEnvironment:
    """A sampled environment with cond(B) below WEAK_COND."""
    while True:
        env = bs.sample_environment(rng, n_states, n_signals)
        if _cond(env) < WEAK_COND:
            return env


def weak_environment(rng) -> bs.InformationalEnvironment:
    """3 x 4 environment with structure rows shrunk toward uniform, cond(B) in [1e3, 1e4]."""
    while True:
        env = bs.sample_environment(rng, 3, 4)
        spread = 10 ** rng.uniform(-3.0, -1.5)
        rows = (1 - spread) * 0.25 + spread * env.structure.entries
        weak = bs.InformationalEnvironment(bs.InformationStructure(rows), env.prior)
        if WEAK_COND <= _cond(weak) <= 10 * WEAK_COND:
            return weak


def split_state_environment(rng, n_states: int, n_signals: int) -> bs.InformationalEnvironment:
    """Duplicate one structure row and split its prior mass: a dependent belief column."""
    env = bs.sample_environment(rng, n_states, n_signals)
    k = int(rng.integers(n_states))
    share = rng.uniform(0.2, 0.8)
    rows = np.vstack([env.structure.entries, env.structure.entries[k]])
    prior = np.append(env.prior.entries, (1 - share) * env.prior.entries[k])
    prior[k] *= share
    return bs.InformationalEnvironment(bs.InformationStructure(rows), bs.Prior(prior))


def _environment_mismatch(structure, prior_family, env) -> str | None:
    if prior_family is None or prior_family.kind != "unique":
        return "prior not unique"
    if _gap(structure.entries, env.structure.entries) > TOL:
        return "structure differs from the generator"
    if _gap(prior_family.unique_prior.entries, env.prior.entries) > TOL:
        return "prior differs from the generator"
    return None


def _standalone_kernels(tracer, b, q, accuracy) -> None:
    tracer.call("linalg.regression_operator", bs.regression_operator, b)
    tracer.call("linalg.null_space_basis", bs.null_space_basis, b)
    tracer.call("linalg.eigenvalue_one", bs.unit_eigenvector_eigenvalue_one, accuracy)
    tracer.call("linalg.min_norm_solution", bs.min_norm_solution, b, q)


def _cli_main(main, argv: list[str]) -> None:
    code = main(argv)
    if code != 0:  # marks the span failed
        raise RuntimeError(f"beliefscape {' '.join(argv)} exited with {code}")


# --------------------------------------------------------------------------
# lib-small: generate -> 12-digit serialize -> parse -> validate -> check -> sp
# --------------------------------------------------------------------------


def _render_landscape(landscape) -> str:
    return dumps_report(landscape_to_doc(landscape))


def _parse_landscape(text: str):
    return landscape_from_doc(json.loads(text))


class LibSmall:
    POOL = 500
    # The verdict defect the ROADMAP tracks as O4: after the 12-digit round trip
    # some weakly-informative 3 x 4 landscapes are judged inconsistent (2-16% of
    # them over 150 seeds). Those inputs stay out of the timed loop, where every
    # operation must pass; a fixed seeded probe of WEAK_PROBE of them runs once
    # per run, untimed, and reports how many come back inconsistent. The run is
    # incorrect once that share passes KNOWN_DEFECT_SHARE.
    WEAK_PROBE = 200
    KNOWN_DEFECT_SHARE = 0.35

    CLI_COMMANDS = ("generate", "identify", "check", "sp", "ridge")

    def __init__(self, rng, scratch: Path, child_env: dict, root: Path) -> None:
        from beliefscape import cli  # loaded here, not in the first cli.main span

        self.cli = cli
        self.envs = [
            well_conditioned_environment(rng, *SMALL_SHAPES[k % len(SMALL_SHAPES)])
            for k in range(self.POOL)
        ]
        self.weak_envs = [weak_environment(rng) for _ in range(self.WEAK_PROBE)]
        # Paper-scale files for the standalone cli.main spans: a 3 x 4 environment,
        # its landscape, and a scarce-signal 3 x 2 landscape for `ridge`.
        env = bs.sample_environment(rng, 3, 4)
        self.cli_paths = {"generate": str(scratch / "env.json"),
                          "ridge": str(scratch / "scarce.json"),
                          "landscape": str(scratch / "landscape.json")}
        save_environment(env, self.cli_paths["generate"])
        save_landscape(bs.generate_landscape(env), self.cli_paths["landscape"])
        save_landscape(bs.generate_landscape(bs.sample_environment(rng, 3, 2)),
                       self.cli_paths["ridge"])

    def operation(self, i: int, tracer):
        return self._pipeline(self.envs[i % self.POOL], tracer)

    @staticmethod
    def _pipeline(env, tracer):
        landscape = tracer.call("forward.generate", bs.generate_landscape, env)
        text = tracer.call("fileio.render", _render_landscape, landscape)
        tracer.count("fileio.render.bytes", len(text))
        parsed = tracer.call("fileio.parse", _parse_landscape, text)
        report = tracer.call("core.validate", bs.validate_landscape, parsed.B, parsed.Q)
        verdict = tracer.call("identify.consistency_check", bs.consistency_check, parsed)
        sp = tracer.call("identify.signal_priors", bs.signal_priors_identify, parsed)
        return parsed, report, verdict, sp

    def probe(self, tracer) -> dict:
        """The same pipeline on the weak probe; counts "inconsistent" verdicts."""
        inconsistent = sum(
            not self._pipeline(env, tracer)[2].consistent for env in self.weak_envs
        )
        return {
            "attempted": len(self.weak_envs),
            "failed": inconsistent,
            "limit": self.KNOWN_DEFECT_SHARE,
        }

    def check(self, i: int, outcome) -> Failure | None:
        _, report, verdict, sp = outcome
        if not report.plausible:
            return Failure("validate: landscape judged implausible")
        if not verdict.consistent:
            return Failure(f"check: inconsistent ({', '.join(verdict.failed)})")
        env = self.envs[i % self.POOL]
        identified = verdict.identification
        mismatch = _environment_mismatch(identified.structure, identified.prior, env)
        if mismatch:
            return Failure(f"check: {mismatch}")
        if sp.kind != "unique" or sp.structure is None:
            return Failure("sp: no unique prior and structure")
        if _gap(sp.prior.unique_prior.entries, identified.prior.unique_prior.entries) > TOL:
            return Failure("sp: prior disagrees with regression")
        if _gap(sp.structure.entries, identified.structure.entries) > TOL:
            return Failure("sp: structure disagrees with regression")
        return None

    def standalone(self, i: int, outcome, tracer) -> None:
        parsed, _, verdict, _ = outcome
        accuracy = verdict.identification.peer_accuracy
        if accuracy is not None:  # None when no prior was found
            _standalone_kernels(tracer, parsed.B.entries, parsed.Q.entries, accuracy)
        command = self.CLI_COMMANDS[i % len(self.CLI_COMMANDS)]
        argv = [command, self.cli_paths.get(command, self.cli_paths["landscape"])]
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.call("cli.main", _cli_main, self.cli.main, argv, detail=command)


# --------------------------------------------------------------------------
# lib-large: `identify big.json` at 50 x 60 without the process start-up
# --------------------------------------------------------------------------


def _render_identify(cli, ns, argv, digests, verdict) -> str:
    """The report `beliefscape identify <file>` writes, built by the CLI's own code."""
    result = cli._identification_payload(verdict.identification)
    result["consistency"] = {"consistent": verdict.consistent, "failed": list(verdict.failed)}
    label = "consistent" if verdict.consistent else "inconsistent"
    doc = cli._report(ns, argv, digests, result, verdict=label,
                      warning_list=cli._clip_warnings(verdict.identification))
    return cli._render(doc, ns)


class LibLarge:
    # At 200 x 240 an operation lasts about 0.5 s and its fastest time moved by
    # 20-30% between runs on a shared host: few half-second stretches pass
    # without another tenant slowing the CPU. At 50 x 60 (about 25 ms) it holds
    # within a few percent, and per-entry loops and rendering still dominate.
    N_STATES, N_SIGNALS = 50, 60
    POOL = 8  # a 30 s run passes over the pool about 110 times

    def __init__(self, rng, scratch: Path, child_env: dict, root: Path) -> None:
        from beliefscape import cli  # lib-scarce never loads it

        self.cli = cli
        self.envs, self.argvs = [], []
        for k in range(self.POOL):
            # The default min_mass=0.02 cannot fit 50 or more signals; 0.1/n can.
            env = bs.sample_environment(
                rng, self.N_STATES, self.N_SIGNALS, min_mass=0.1 / self.N_SIGNALS
            )
            path = str(scratch / f"large{k}.json")
            save_landscape(bs.generate_landscape(env), path)
            self.envs.append(env)
            self.argvs.append(["identify", path])
        self.namespaces = [cli.build_parser().parse_args(argv) for argv in self.argvs]

    def operation(self, i: int, tracer):
        argv, ns = self.argvs[i % self.POOL], self.namespaces[i % self.POOL]
        landscape, digests = tracer.call("fileio.parse", load_landscape, argv[1])
        report = tracer.call("core.validate", bs.validate_landscape, landscape.B, landscape.Q)
        verdict = tracer.call("identify.consistency_check", bs.consistency_check, landscape)
        rationalized = tracer.call("identify.rationalize", bs.rationalize_noncommon, landscape)
        text = tracer.call("fileio.render", _render_identify, self.cli, ns, argv, digests, verdict)
        tracer.count("fileio.render.bytes", len(text))
        return landscape, report, verdict, rationalized, text

    def check(self, i: int, outcome) -> Failure | None:
        _, report, verdict, rationalized, text = outcome
        env = self.envs[i % self.POOL]
        if not report.plausible:
            return Failure("validate: landscape judged implausible")
        if not verdict.consistent:
            return Failure(f"check: inconsistent ({', '.join(verdict.failed)})")
        identified = verdict.identification
        mismatch = _environment_mismatch(identified.structure, identified.prior, env)
        if mismatch:
            return Failure(f"check: {mismatch}")
        if max(rationalized.belief_residuals) > TOL:
            return Failure("rationalize: per-type priors do not reproduce the beliefs")
        if max(_gap(p.entries, env.prior.entries) for p in rationalized.type_priors) > TOL:
            return Failure("rationalize: a per-type prior differs from the common prior")
        doc = json.loads(text)
        if doc["argv"] != self.argvs[i % self.POOL] or doc["verdict"] != "consistent":
            return Failure("render: not the identify report of this file")
        rendered = doc["result"]
        if (
            _gap(rendered["structure"], identified.structure.entries) > 1e-11
            or _gap(rendered["peer_accuracy"], identified.peer_accuracy) > 1e-11
        ):
            return Failure("render: a matrix lost more than the 12-digit rounding")
        return None

    def standalone(self, i: int, outcome, tracer) -> None:
        landscape, _, verdict, _, _ = outcome
        _standalone_kernels(
            tracer, landscape.B.entries, landscape.Q.entries, verdict.identification.peer_accuracy
        )


# --------------------------------------------------------------------------
# lib-scarce: one landscape per restoration route and one with a split state
# --------------------------------------------------------------------------


def _reduce_identify_embed(landscape):
    reduction = bs.reduce_dependencies(landscape)
    result = bs.identify(reduction.reduced)
    return reduction, reduction.embed(result.structure, result.prior.unique_prior)


class LibScarce:
    # Few inputs, many runs of each: an operation lasts about 8 ms, and its
    # fastest time needs many tries to find a stretch the host leaves alone.
    # 24 covers each combination of the k % 3 and k % 4 cycles twice.
    POOL = 24

    def __init__(self, rng, scratch: Path, child_env: dict, root: Path) -> None:
        self.inputs = []
        for k in range(self.POOL):
            n_signals = 2 + k % 3
            one_d = bs.sample_environment(rng, n_signals + 1, n_signals)  # 1-D null space
            two_d = bs.sample_environment(rng, n_signals + 2, n_signals)  # 2-D null space
            n_states = 2 + k % 3
            split = split_state_environment(rng, n_states, n_states + k % 4)
            envs = (one_d, two_d, split)
            self.inputs.append((envs, tuple(bs.generate_landscape(e) for e in envs)))

    def operation(self, i: int, tracer):
        _, (one_d, two_d, split) = self.inputs[i % self.POOL]
        closed_form = tracer.call(
            "identify.underdetermined_1d", bs.identify_underdetermined, one_d
        )
        lp = tracer.call("identify.underdetermined_lp", bs.identify_underdetermined, two_d)
        reduction, embedded = tracer.call("identify.reduce_embed", _reduce_identify_embed, split)
        return closed_form, lp, reduction, embedded

    def check(self, i: int, outcome) -> Failure | None:
        (one_d_env, two_d_env, _), landscapes = self.inputs[i % self.POOL]
        closed_form, lp, reduction, (structure, prior) = outcome
        for route, dimension, result, env, landscape in (
            ("1-D", 1, closed_form, one_d_env, landscapes[0]),
            ("LP", 2, lp, two_d_env, landscapes[1]),
        ):
            if result.null_basis.dimension != dimension:
                return Failure(f"{route}: null space of dimension {result.null_basis.dimension}")
            if result.restored.kind == "infeasible":
                return Failure(f"{route} restoration: infeasible")
            if result.residual > TOL:
                return Failure(f"{route}: ridge residual {result.residual:.3g}")
            if result.prior.kind != "unique":
                return Failure(f"{route}: prior not unique")
            if _gap(result.prior.unique_prior.entries, env.prior.entries) > TOL:
                return Failure(f"{route}: prior differs from the generator")
            restored = result.restored.structure
            if (
                _gap(restored.sum(axis=1), np.ones(len(restored))) > TOL
                or _gap(landscape.B.entries @ restored, landscape.Q.entries) > TOL
            ):
                return Failure(f"{route}: restored structure is not a stochastic solution")
        if reduction.trivial:
            return Failure("reduce: dependent column not found")
        regenerated = bs.generate_landscape(bs.InformationalEnvironment(structure, prior))
        landscape = landscapes[2]
        if (
            _gap(regenerated.B.entries, landscape.B.entries) > TOL
            or _gap(regenerated.Q.entries, landscape.Q.entries) > TOL
        ):
            return Failure("reduce: embedded environment does not regenerate the landscape")
        return None

    def standalone(self, i: int, outcome, tracer) -> None:
        _, landscapes = self.inputs[i % self.POOL]
        closed_form, lp, reduction, _ = outcome
        for result, landscape in ((closed_form, landscapes[0]), (lp, landscapes[1])):
            b, q = landscape.B.entries, landscape.Q.entries
            tracer.call("linalg.min_norm_solution", bs.min_norm_solution, b, q)
            tracer.call("linalg.null_space_basis", bs.null_space_basis, b)
            tracer.call(
                "linalg.eigenvalue_one", bs.unit_eigenvector_eigenvalue_one, b.T @ result.ridge_limit.T
            )
        tracer.call("linalg.regression_operator", bs.regression_operator, reduction.reduced.B.entries)


WORKLOADS = {
    "lib-small": LibSmall,
    "lib-large": LibLarge,
    "lib-scarce": LibScarce,
}

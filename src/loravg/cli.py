"""Command line surface.

Subcommands: build-space, norm, rearrange, avg, verify, witness, probe,
approx.  Structured output is JSON (CSV for probe tables, SVG for plots)
and is deterministic: no timestamps inside artifacts, wall time on
stderr only, seeds mandatory for anything randomized.  JSON is streamed:
it has the bytes of json.dumps(obj, indent=2, sort_keys=True), but is
written chunk by chunk, to stdout or, with --out, to a temporary file
renamed into place, so no command holds the whole text in memory.

Exit codes: 0 all contracts pass, or no contract was checked (the report
then says "pass": null, as `witness` does in the bounded regime, where no
witness pair exists), 1 a contract failed (report still emitted), 2 usage
or input error, including an input too large for the memory at hand.
"""

import argparse
import itertools
import json
import math
import sys
import time

import numpy as np

# averaging, compactness, svgplot and hashlib are imported by the handlers
# that use them, so that a command loads only what it runs.
from . import norms, rearrange, space as space_mod
from .errors import DomainError, MetricViolationError, NotInSpaceError


class CLIError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise CLIError(f"no such file: {path}")
    except json.JSONDecodeError as err:
        raise CLIError(f"malformed JSON in {path}: line {err.lineno} "
                       f"column {err.colno}: {err.msg}")
    except RecursionError:
        raise CLIError(f"JSON in {path} is nested too deeply")


def _digest(path: str) -> str:
    import hashlib

    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            sha.update(block)
    return "sha256:" + sha.hexdigest()


def _emit(chunks, out: str | None) -> None:
    """Write an artifact, given as an iterable of str chunks, to the file
    out or to the current sys.stdout."""
    if out:
        from . import svgplot

        svgplot.write_atomic(out, chunks)
    else:
        sys.stdout.writelines(chunks)


# The C encoder: one call encodes a scalar, or a list of scalars as
# "[a, b, c]", with the bytes json.dumps gives each of them.
_encode = json.JSONEncoder().encode
_SCALARS = frozenset((float, int, bool, type(None)))


def _json_chunks(obj, indent: str = "\n"):
    """The text of json.dumps(obj, indent=2, sort_keys=True), as chunks,
    for obj whose dict keys are all str.

    That call runs the pure-Python encoder and holds every piece of the
    document at once.  Here a list of plain scalars (such as a row of a
    distance matrix) is one chunk from one C-encoder call, with its ", "
    separators, which no scalar contains, turned into the indented form.
    indent is the newline and indentation at obj's own depth.
    """
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
        elif set(map(type, obj)) <= _SCALARS:
            yield "[" + inner + _encode(obj)[1:-1].replace(", ", "," + inner) + indent + "]"
        else:
            yield "["
            for i, item in enumerate(obj):
                yield "," + inner if i else inner
                yield from _json_chunks(item, inner)
            yield indent + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{"
        for i, (key, value) in enumerate(sorted(obj.items())):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield ("," + inner if i else inner) + _encode(key) + ": "
            yield from _json_chunks(value, inner)
        yield indent + "}"
    else:
        yield _encode(obj)


def _emit_json(obj, out: str | None) -> None:
    """Emit obj as canonical JSON (sorted keys, indent 2) and a newline,
    streamed chunk by chunk."""
    _emit(itertools.chain(_json_chunks(obj), ("\n",)), out)


def _parse_exponent(raw: str) -> float:
    if raw in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(raw)
    except ValueError:
        raise CLIError(f"not a number: {raw!r}")


def _space_from_args(args) -> space_mod.MetricMeasureSpace:
    return space_mod.build_space(_load_json(args.space))


def _function_from_args(args, sp) -> rearrange.FunctionOnSpace:
    payload = _load_json(args.fn)
    if not isinstance(payload, dict) or "values" not in payload:
        raise CLIError("function JSON must be an object with a 'values' field")
    try:
        values = np.asarray(payload["values"], dtype=float)
    except (TypeError, ValueError):
        raise CLIError(f"function values in {args.fn} must be numbers")
    return rearrange.FunctionOnSpace(sp, values)


def _norm_spec(args) -> norms.NormSpec:
    return norms.NormSpec(_parse_exponent(args.p), _parse_exponent(args.q),
                          args.variant)


def _input_digests(args) -> dict:
    out = {}
    for name in ("space", "fn"):
        path = getattr(args, name, None)
        if path:
            out[name] = _digest(path)
    return out


def _check(name: str, lhs: float, rhs: float, constants: dict) -> dict:
    from .averaging import holds

    lhs, rhs = float(lhs), float(rhs)
    return {
        "name": name,
        "constants": {k: float(v) for k, v in constants.items()},
        "lhs": lhs,
        "rhs": rhs,
        "margin": rhs - lhs,
        "pass": bool(holds(lhs, rhs)),
    }


# -- subcommand handlers ------------------------------------------------------

def _cmd_build_space(args) -> int:
    sp = _space_from_args(args)
    _emit_json(sp.to_json(), args.out)
    return 0


def _cmd_norm(args) -> int:
    sp = _space_from_args(args)
    f = _function_from_args(args, sp)
    spec = _norm_spec(args)
    value = norms.lorentz_norm(f, spec)
    _emit_json({"value": value, "normable": spec.normable}, args.out)
    return 0


def _cmd_rearrange(args) -> int:
    sp = _space_from_args(args)
    f = _function_from_args(args, sp)
    if args.distribution:
        sf, title = rearrange.distribution_function(f), "distribution function"
    else:
        sf, title = rearrange.rearrangement(f), "decreasing rearrangement"
    _emit_json(sf.to_json(), args.out)
    if args.plot:
        from . import svgplot

        svgplot.emit_step_svg(sf, args.plot, title=title)
    return 0


def _cmd_avg(args) -> int:
    from . import averaging

    sp = _space_from_args(args)
    f = _function_from_args(args, sp)
    if not args.r > 0:
        raise CLIError("--r must be positive")
    _emit_json(averaging.average(sp, f, args.r).to_json(), args.out)
    return 0


def _trial_functions(args, sp, spec) -> list[rearrange.FunctionOnSpace]:
    if args.fn:
        f = _function_from_args(args, sp)
        if args.lemma != "equicontinuity":
            return [f]
        # The modulus bounds A_r f over the unit ball, so f is scaled to unit norm.
        norm = norms.lorentz_norm(f, spec)
        if norm == 0.0:
            raise CLIError("the equicontinuity modulus needs a nonzero --fn")
        return [f * (1.0 / norm)]
    if args.seed is None:
        raise CLIError("randomized run: --seed is mandatory when --fn is omitted")
    if args.lemma == "equicontinuity":
        from .compactness import sample_unit_sphere

        return sample_unit_sphere(sp, spec, args.trials, args.seed)
    rng = np.random.default_rng(args.seed)
    return [rearrange.FunctionOnSpace(sp, rng.standard_normal(sp.natoms))
            for _ in range(args.trials)]


def _verify_distribution(sp, fs, r, spec) -> tuple[list[dict], float, float]:
    from . import averaging

    checks, worst = [], 0.0
    for i, f in enumerate(fs):
        rep = averaging.verify_distribution_inequality(sp, f, r, averaging.threshold_sweep(f))
        checks.append(_check(f"trial-{i}-t-{rep.t:g}", rep.lhs, rep.rhs,
                             {"c": rep.constant_c}))
        worst = max(worst, rep.ratio)
    return checks, worst, rep.constant_c


def _verify_rearrange(sp, fs, r, spec) -> tuple[list[dict], float, float]:
    from . import averaging

    checks, worst = [], 0.0
    for i, f in enumerate(fs):
        rep = averaging.verify_rearrangement_bound(sp, f, r)
        checks.append(_check(f"trial-{i}", rep.max_ratio, rep.constant_c,
                             {"c": rep.constant_c, "worst_t": rep.worst_t}))
        worst = max(worst, rep.max_ratio / rep.constant_c)
    return checks, worst, rep.constant_c


def _verify_operator_bound(sp, fs, r, spec) -> tuple[list[dict], float, float]:
    from . import averaging

    checks, worst = [], 0.0
    for i, f in enumerate(fs):
        rep = averaging.verify_operator_bound(sp, f, r, spec)
        checks.append(_check(f"trial-{i}", rep.lhs, rep.rhs,
                             {"c": rep.constant_c, "factor": rep.factor}))
        if rep.rhs > 0:
            worst = max(worst, rep.lhs / rep.rhs)
    return checks, worst, rep.constant_c


def _worst_pairs(sp, rows, bound, avgs) -> list[tuple[float, int, int, float]]:
    """Per trial average in avgs, the pair (x, y) with x in the slice rows
    of largest |A_r f(x) - A_r f(y)| / bound(x, y), as (ratio, x, y, bound),
    where bound holds those rows of the equicontinuity bound; the first in
    row-major order among equal ratios; [] if every bound in rows is 0.  A
    zero bound means equal balls (the diagonal included), where
    A_r f(x) = A_r f(y) exactly, so only the other pairs count."""
    pairs = np.flatnonzero(bound > 0)
    if pairs.size == 0:
        return []
    worst = []
    for avg in avgs:
        ratio = np.abs(avg[rows, None] - avg[None, :]).flat[pairs] / bound.flat[pairs]
        j = int(np.argmax(ratio))
        x, y = divmod(int(pairs[j]), sp.natoms)
        worst.append((float(ratio[j]), rows.start + x, y, float(bound.flat[pairs[j]])))
    return worst


def _verify_equicontinuity(sp, fs, r, spec) -> tuple[list[dict], float, float | None]:
    from . import averaging

    kernel = averaging.AveragingKernel.build(sp, r)
    avgs = [kernel.apply(f).values for f in fs]
    # The bound goes by row blocks; a later block's pair replaces an
    # earlier one only with a larger ratio, as in one row-major argmax.
    # Each block also gives the bounds of its pairs (x, x + 1).
    best, adjacent = [], np.empty(sp.natoms - 1)
    for rows in sp.pair_blocks():
        bound = averaging.equicontinuity_bound_matrix(sp, r, spec, rows)
        pairs = np.diagonal(bound, offset=rows.start + 1)
        adjacent[rows.start:rows.start + pairs.size] = pairs
        block = _worst_pairs(sp, rows, bound, avgs)
        del bound, pairs  # before the next block's bound is formed
        if not best:
            best = block
        elif block:
            best = [new if new[0] > old[0] else old for old, new in zip(best, block)]
    if not best:
        raise CLIError(f"every ball of radius {r:g} is the same atom set, so the "
                       "modulus is identically 0")
    worst, checks = 0.0, []
    for i, (ratio, x, y, b) in enumerate(best):
        worst = max(worst, ratio)
        checks.append(_check(f"trial-{i}-pair-{x}-{y}", float(abs(avgs[i][x] - avgs[i][y])),
                             b, {}))
    if spec.variant == norms.PLAIN and spec.p == spec.q:
        exact = np.concatenate([averaging.adjacent_dual_moduli(sp, r, spec, rows)
                                for rows in sp.pair_blocks()])
        for x, (lhs, b) in enumerate(zip(exact, adjacent)):
            checks.append(_check(f"dual-norm-pair-{x}-{x + 1}", lhs, b, {}))
        positive = adjacent > 0
        if positive.any():
            worst = max(worst, float(np.max(exact[positive] / adjacent[positive])))
    return checks, worst, None


def _cmd_verify(args) -> int:
    # Every lemma runs averaging.  Imported before the space file is parsed
    # rather than after, it leaves the peak RSS of `verify --lemma
    # equicontinuity` on a 400-atom matrix space about 0.4 MB lower (the
    # parse's freed objects no longer sit under the module's).
    from . import averaging  # noqa: F401

    sp = _space_from_args(args)
    spec = _norm_spec(args)
    if not args.r > 0:
        raise CLIError("--r must be positive")
    if args.trials < 1:
        raise CLIError("--trials must be at least 1")
    fs = _trial_functions(args, sp, spec)
    handler = {
        "distribution": _verify_distribution,
        "rearrange": _verify_rearrange,
        "operator-bound": _verify_operator_bound,
        "equicontinuity": _verify_equicontinuity,
    }[args.lemma]
    checks, worst_ratio, c = handler(sp, fs, args.r, spec)
    passed = all(ch["pass"] for ch in checks)
    report = {
        "command": ["verify", "--lemma", args.lemma],
        "inputs": _input_digests(args),
        "lemma": args.lemma,
        "constant_c": c,
        "worst_ratio": worst_ratio,
        "checks": checks,
        "pass": passed,
    }
    _emit_json(report, args.out)
    return 0 if passed else 1


def _cmd_witness(args) -> int:
    from . import averaging, compactness

    sp = _space_from_args(args)
    spec = _norm_spec(args)
    rep = compactness.witness_sequence(sp, args.r, args.k, spec)
    # The bounded regime has no witness pair, so no inequality is checked.
    report = {
        "command": ["witness"],
        "inputs": _input_digests(args),
        "bounded_regime": rep.bounded_regime,
        "centers": rep.centers,
        "c_lower": rep.c_lower,
        "checked_pairs": 0,
        "pass": None,
    }
    if not rep.bounded_regime:
        m = len(rep.centers)
        report.update({
            "checked_pairs": m * (m - 1) // 2,
            "min_pairwise": rep.min_pairwise,
            "distances": [[float(d) for d in row] for row in rep.distances],
            "witness_norms": rep.witness_norms,
            "pass": bool(averaging.holds(rep.c_lower, rep.min_pairwise)),
        })
    _emit_json(report, args.out)
    return 1 if report["pass"] is False else 0


def _parse_family(raw: str) -> tuple[list[space_mod.MetricMeasureSpace], list[str]]:
    parts = raw.split(":")
    if parts[0] != "lattice" or len(parts) not in (2, 4):
        raise CLIError("family must be lattice:L or lattice:START:STOP:STEP")
    try:
        nums = [int(p) for p in parts[1:]]
    except ValueError:
        raise CLIError(f"bad family bounds in {raw!r}")
    if len(nums) == 3 and nums[2] < 1:
        raise CLIError(f"family step must be positive in {raw!r}")
    sizes = nums if len(nums) == 1 else list(range(nums[0], nums[1] + 1, nums[2]))
    if not sizes:
        raise CLIError("family is empty")
    return [space_mod.MetricMeasureSpace.lattice(L) for L in sizes], [str(L) for L in sizes]


def _cmd_probe(args) -> int:
    from . import compactness, svgplot

    if args.seed is None:
        raise CLIError("randomized run: --seed is mandatory")
    spaces, labels = _parse_family(args.family)
    spec = _norm_spec(args)
    rows = compactness.compactness_probe(spaces, args.r, spec, args.epsilon,
                                         args.n, args.seed, labels=labels)
    lines = ["L,k,witness_count,witness_min,c_lower"]
    for row in rows:
        wmin = "" if row.witness_min is None else repr(row.witness_min)
        lines.append(f"{row.label},{row.k},{row.witness_count},{wmin},{row.c_lower!r}")
    _emit(["\n".join(lines) + "\n"], args.out)
    if args.svg:
        xs = [float(r.label) for r in rows]
        chart = svgplot.line_chart_svg(
            [("net size k", xs, [float(r.k) for r in rows]),
             ("separated witnesses", xs, [float(r.witness_count) for r in rows])],
            xlabel="L", ylabel="count", title="compactness probe")
        svgplot.write_atomic(args.svg, chart)
    return 0


def _cmd_approx(args) -> int:
    from . import compactness

    sp = _space_from_args(args)
    f = _function_from_args(args, sp)
    spec = _norm_spec(args)
    rep = compactness.simple_approximation(sp, f, args.epsilon, spec)
    _emit_json({
        "command": ["approx"],
        "inputs": _input_digests(args),
        "centers": rep.centers,
        "radii": rep.radii,
        "coefficients": rep.coefficients,
        "values": rep.function.values.tolist(),
        "error": rep.error,
        "remainder_norm": rep.remainder_norm,
    }, args.out)
    return 0


# -- parser -------------------------------------------------------------------

def _add_norm_flags(p) -> None:
    p.add_argument("--p", required=True, help="first Lorentz exponent (number or inf)")
    p.add_argument("--q", required=True, help="second Lorentz exponent (number or inf)")
    p.add_argument("--variant", default=norms.PLAIN,
                   choices=[norms.PLAIN, norms.DOUBLE_STAR])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loravg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-space", help="validate a space and emit canonical JSON")
    p.add_argument("--space", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_build_space)

    p = sub.add_parser("norm", help="Lorentz norm of a function")
    p.add_argument("--space", required=True)
    p.add_argument("--fn", required=True)
    _add_norm_flags(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("rearrange", help="decreasing rearrangement step function")
    p.add_argument("--space", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--distribution", action="store_true",
                   help="emit the distribution function instead")
    p.add_argument("--plot", help="also write a step plot SVG here")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_rearrange)

    p = sub.add_parser("avg", help="apply the averaging operator")
    p.add_argument("--space", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_avg)

    p = sub.add_parser("verify", help="check one of the operator inequalities")
    p.add_argument("--lemma", required=True,
                   choices=["distribution", "rearrange", "operator-bound",
                            "equicontinuity"])
    p.add_argument("--space", required=True)
    p.add_argument("--r", type=float, required=True)
    _add_norm_flags(p)
    p.add_argument("--fn", help="explicit function (otherwise random, needs --seed)")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("witness", help="non-compactness witness separation")
    p.add_argument("--space", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_norm_flags(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("probe", help="covering/witness trends over a space family")
    p.add_argument("--family", required=True, help="lattice:START:STOP:STEP")
    p.add_argument("--r", type=float, required=True)
    _add_norm_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("approx", help="simple-function approximation by disjoint balls")
    p.add_argument("--space", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    _add_norm_flags(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_approx)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        code = args.handler(args)
    except (CLIError, DomainError, MetricViolationError, NotInSpaceError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2
    finally:
        print(f"wall_time_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())

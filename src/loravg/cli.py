"""Command line surface.

Subcommands: build-space, norm, rearrange, avg, verify, witness, probe,
approx.  Structured output is JSON (CSV for probe tables, SVG for plots)
and is deterministic: no timestamps inside artifacts, wall time on
stderr only, seeds mandatory for anything randomized.  The symmetric
differences that `verify --lemma equicontinuity` reads are exact limb
sums (see `space.MetricMeasureSpace._limbs`), the same at any BLAS
thread count and summation order.  JSON is streamed: it has
the bytes of json.dumps(obj, indent=2, sort_keys=True), but is written
chunk by chunk, to stdout or, with --out, to a temporary file renamed
into place, so no command holds the whole text in memory.  A numpy array
in the report is written a row at a time, so no command holds it as
Python floats either.  A plot (`rearrange --plot`, `probe --svg`) is
written before the artifact, so a plot that cannot be written leaves no
partial output.  Input files are read as UTF-8.

Exit codes: 0 all contracts pass, or no contract was checked (the report
then says "pass": null, as `witness` does in the bounded regime, where no
witness pair exists), 1 a contract failed (report still emitted), 2 usage
or input error, including an input too large for the memory at hand.

A command reads its --space file and packs the file's float fields
(`decode.pack_floats`) before it imports numpy or any numeric module of
the package, which the handlers import where they need them: numpy's
import then reuses the memory that the parse's float objects held, and a
command loads only what it runs.  A seeded command imports numpy.random
without OpenSSL (see `_checked_seed`).
"""

import argparse
import itertools
import json
import math
import sys
import time
from typing import TYPE_CHECKING

# No hashlib: the input digests take the interpreter's built-in SHA-256 (see
# _sha256), and seeded draws import numpy.random without OpenSSL (see
# _checked_seed), because hashlib loads OpenSSL's libcrypto, about 3.4 MB of
# resident memory.
from .decode import pack_floats
from .errors import DomainError, MetricViolationError, NotInSpaceError

if TYPE_CHECKING:
    from .norms import NormSpec
    from .rearrange import FunctionOnSpace
    from .space import MetricMeasureSpace

# The float fields of a space description (see `space.build_space`).
_SPACE_FLOAT_FIELDS = ("dist", "weights", "coords")


class CLIError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _load_json(path: str):
    """The parsed JSON file at path, read as UTF-8 whatever the locale."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise CLIError(f"no such file: {path}")
    except UnicodeDecodeError as err:
        raise CLIError(f"{path} is not UTF-8 text: {err}")
    except json.JSONDecodeError as err:
        raise CLIError(f"malformed JSON in {path}: line {err.lineno} "
                       f"column {err.colno}: {err.msg}")
    except RecursionError:
        raise CLIError(f"JSON in {path} is nested too deeply")


def _sha256():
    """The SHA-256 constructor: hashlib's when hashlib is loaded already,
    which is OpenSSL's, the fastest, unless hashlib came in without it, as
    through numpy.random in a seeded command (see `_checked_seed`);
    otherwise the interpreter's built-in one, which loads no OpenSSL
    (random.py does the same for SHA-512); hashlib's when neither built-in
    module exists."""
    if sys.modules.get("hashlib") is None:
        for name in ("_sha2", "_sha256"):  # Python 3.12 and later; 3.10 and 3.11
            try:
                return __import__(name).sha256
            except ImportError:
                pass
    import hashlib

    return hashlib.sha256


def _digest(path: str) -> str:
    sha = _sha256()()
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
    A numpy array stands for its .tolist() form, which is never formed
    whole: a vector is one such list, and an array of more dimensions is
    read a row at a time.  indent is the newline and indentation at obj's
    own depth.
    """
    inner = indent + "  "
    ndim = getattr(obj, "ndim", 0)  # a numpy array's; 0 for a numpy scalar
    if ndim == 1:
        obj = obj.tolist()
    if ndim > 1 or isinstance(obj, (list, tuple)):
        if not len(obj):
            yield "[]"
        elif ndim < 2 and set(map(type, obj)) <= _SCALARS:
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


def _load_space(path: str):
    """The parsed space file, its float fields packed where they convert.
    A field left as parsed fails in `build_space`, in its own order."""
    spec = _load_json(path)
    if isinstance(spec, dict):
        for key in _SPACE_FLOAT_FIELDS:
            if type(spec.get(key)) is list:
                packed = pack_floats(spec[key])
                if packed is not None:
                    spec[key] = packed
    return spec


def _space_from_args(args) -> "MetricMeasureSpace":
    spec = _load_space(args.space)
    from .space import build_space

    return build_space(spec)


def _function_from_args(args, sp) -> "FunctionOnSpace":
    import numpy as np

    from .rearrange import FunctionOnSpace

    payload = _load_json(args.fn)
    if not isinstance(payload, dict) or "values" not in payload:
        raise CLIError("function JSON must be an object with a 'values' field")
    values = pack_floats(payload["values"])
    if values is None:
        raise CLIError(f"function values in {args.fn} must be numbers")
    return FunctionOnSpace(sp, np.asarray(values))  # read-only, so taken without a copy


def _norm_spec(args) -> "NormSpec":
    from .norms import NormSpec

    return NormSpec(_parse_exponent(args.p), _parse_exponent(args.q), args.variant)


def _checked_seed(seed: int) -> int:
    """seed, if numpy's generators take it: they refuse a negative one.

    Every draw comes after this check, so numpy.random is imported here,
    without OpenSSL.  It imports secrets, hmac and hashlib, which load
    OpenSSL's libcrypto through _hashlib.  A None entry in sys.modules
    makes that import raise ImportError, and hashlib and hmac then take the
    interpreter's own hash modules.  A process that has loaded _hashlib
    already keeps it."""
    if seed < 0:
        raise CLIError(f"--seed must be nonnegative, not {seed}")
    if "_hashlib" not in sys.modules:
        modules = sys.modules
        modules["_hashlib"] = None
        try:
            import numpy.random  # noqa: F401
        finally:
            del modules["_hashlib"]
    return seed


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
    from . import norms

    f = _function_from_args(args, sp)
    spec = _norm_spec(args)
    value = norms.lorentz_norm(f, spec)
    _emit_json({"value": value, "normable": spec.normable}, args.out)
    return 0


def _cmd_rearrange(args) -> int:
    sp = _space_from_args(args)
    from . import rearrange

    f = _function_from_args(args, sp)
    if args.distribution:
        sf, title = rearrange.distribution_function(f), "distribution function"
    else:
        sf, title = rearrange.rearrangement(f), "decreasing rearrangement"
    if args.plot:
        from . import svgplot

        svgplot.emit_step_svg(sf, args.plot, title=title)
    _emit_json(sf.to_json(), args.out)
    return 0


def _cmd_avg(args) -> int:
    sp = _space_from_args(args)
    from . import averaging

    f = _function_from_args(args, sp)
    if not args.r > 0:
        raise CLIError("--r must be positive")
    _emit_json(averaging.average(sp, f, args.r).to_json(), args.out)
    return 0


def _trial_functions(args, sp, spec) -> list["FunctionOnSpace"]:
    from .norms import lorentz_norm
    from .rearrange import FunctionOnSpace

    if args.fn:
        f = _function_from_args(args, sp)
        if args.lemma != "equicontinuity":
            return [f]
        # The modulus bounds A_r f over the unit ball, so f is scaled to unit norm.
        norm = lorentz_norm(f, spec)
        if norm == 0.0:
            raise CLIError("the equicontinuity modulus needs a nonzero --fn")
        return [f * (1.0 / norm)]
    if args.seed is None:
        raise CLIError("randomized run: --seed is mandatory when --fn is omitted")
    seed = _checked_seed(args.seed)
    if args.lemma == "equicontinuity":
        from .averaging import sample_unit_sphere

        return sample_unit_sphere(sp, spec, args.trials, seed)
    import numpy as np

    values = np.random.default_rng(seed).standard_normal((args.trials, sp.natoms))
    values.setflags(write=False)  # so the functions take their rows without a copy
    return [FunctionOnSpace(sp, row) for row in values]


def _trial_check(lemma: str, sp, i: int, f, r: float, spec) -> dict:
    """The check of one trial function for the lemma distribution,
    rearrange or operator-bound."""
    from . import averaging

    if lemma == "distribution":
        rep = averaging.verify_distribution_inequality(sp, f, r, averaging.threshold_sweep(f))
        return _check(f"trial-{i}-t-{rep.t:g}", rep.lhs, rep.rhs, {"c": rep.constant_c})
    if lemma == "rearrange":
        rep = averaging.verify_rearrangement_bound(sp, f, r)
        return _check(f"trial-{i}", rep.max_ratio, rep.constant_c,
                      {"c": rep.constant_c, "worst_t": rep.worst_t})
    rep = averaging.verify_operator_bound(sp, f, r, spec)
    return _check(f"trial-{i}", rep.lhs, rep.rhs, {"c": rep.constant_c, "factor": rep.factor})


def _verify_equicontinuity(sp, fs, r, spec) -> list[dict]:
    """The checks of `averaging.equicontinuity_pairs`: each trial's pair of
    largest ratio, then every pair (x, x + 1) that has an exact modulus."""
    from .averaging import equicontinuity_pairs

    worst, bounds, exact = equicontinuity_pairs(sp, fs, r, spec)
    if worst is None:
        raise CLIError(f"every ball of radius {r:g} is the same atom set, so the "
                       "modulus is identically 0")
    checks = [_check(f"trial-{i}-pair-{x}-{y}", lhs, b, {})
              for i, (x, y, lhs, b) in enumerate(worst)]
    if exact is not None:
        checks += [_check(f"dual-norm-pair-{x}-{x + 1}", lhs, b, {})
                   for x, (lhs, b) in enumerate(zip(exact, bounds))]
    return checks


def _cmd_verify(args) -> int:
    sp = _space_from_args(args)
    from . import averaging

    spec = _norm_spec(args)
    if not args.r > 0:
        raise CLIError("--r must be positive")
    if args.trials < 1:
        raise CLIError("--trials must be at least 1")
    fs = _trial_functions(args, sp, spec)
    if args.lemma == "equicontinuity":
        checks = _verify_equicontinuity(sp, fs, args.r, spec)
    else:
        checks = [_trial_check(args.lemma, sp, i, f, args.r, spec) for i, f in enumerate(fs)]
    ratios = averaging.check_ratios([ch["lhs"] for ch in checks], [ch["rhs"] for ch in checks])
    passed = all(ch["pass"] for ch in checks)
    report = {
        "command": ["verify", "--lemma", args.lemma],
        "inputs": _input_digests(args),
        "lemma": args.lemma,
        "constant_c": checks[-1]["constants"].get("c"),
        "worst_ratio": float(ratios.max()),
        "checks": checks,
        "pass": passed,
    }
    _emit_json(report, args.out)
    return 0 if passed else 1


def _cmd_witness(args) -> int:
    sp = _space_from_args(args)
    from . import averaging, compactness

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
            "distances": rep.distances,
            "witness_norms": rep.witness_norms,
            "pass": bool(averaging.holds(rep.c_lower, rep.min_pairwise)),
        })
    _emit_json(report, args.out)
    return 1 if report["pass"] is False else 0


def _parse_family(raw: str) -> list[int]:
    """The lattice sizes L of a family spec."""
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
    return sizes


def _cmd_probe(args) -> int:
    from . import compactness, svgplot
    from .space import MetricMeasureSpace

    if args.seed is None:
        raise CLIError("randomized run: --seed is mandatory")
    seed = _checked_seed(args.seed)
    sizes = _parse_family(args.family)
    spec = _norm_spec(args)
    # Each lattice is built when its row is computed, so the probe holds one
    # space, with its memos, at a time.
    spaces = (MetricMeasureSpace.lattice(L) for L in sizes)
    rows = compactness.compactness_probe(spaces, args.r, spec, args.epsilon,
                                         args.n, seed, labels=map(str, sizes))
    lines = ["L,k,witness_count,witness_min,c_lower"]
    for row in rows:
        wmin = "" if row.witness_min is None else repr(row.witness_min)
        lines.append(f"{row.label},{row.k},{row.witness_count},{wmin},{row.c_lower!r}")
    if args.svg:
        xs = [float(r.label) for r in rows]
        chart = svgplot.line_chart_svg(
            [("net size k", xs, [float(r.k) for r in rows]),
             ("separated witnesses", xs, [float(r.witness_count) for r in rows])],
            xlabel="L", ylabel="count", title="compactness probe")
        svgplot.write_atomic(args.svg, chart)
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_approx(args) -> int:
    sp = _space_from_args(args)
    from . import compactness

    f = _function_from_args(args, sp)
    spec = _norm_spec(args)
    rep = compactness.simple_approximation(sp, f, args.epsilon, spec)
    _emit_json({
        "command": ["approx"],
        "inputs": _input_digests(args),
        "centers": rep.centers,
        "radii": rep.radii,
        "coefficients": rep.coefficients,
        "values": rep.function.values,
        "error": rep.error,
        "remainder_norm": rep.remainder_norm,
    }, args.out)
    return 0


# -- parser -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    space, fn, r, norm, out = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    space.add_argument("--space", required=True)
    fn.add_argument("--fn", required=True)
    r.add_argument("--r", type=float, required=True)
    norm.add_argument("--p", required=True, help="first Lorentz exponent (number or inf)")
    norm.add_argument("--q", required=True, help="second Lorentz exponent (number or inf)")
    # norms.PLAIN and norms.DOUBLE_STAR, named here so that parsing the
    # arguments imports no numeric module.
    norm.add_argument("--variant", default="plain", choices=["plain", "double-star"])
    out.add_argument("--out")
    parser = argparse.ArgumentParser(prog="loravg")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, parents: list, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(handler=handler)
        return p

    command("build-space", "validate a space and emit canonical JSON", [space, out],
            _cmd_build_space)
    command("norm", "Lorentz norm of a function", [space, fn, norm, out], _cmd_norm)
    p = command("rearrange", "decreasing rearrangement step function", [space, fn, out],
                _cmd_rearrange)
    p.add_argument("--distribution", action="store_true",
                   help="emit the distribution function instead")
    p.add_argument("--plot", help="also write a step plot SVG here")
    command("avg", "apply the averaging operator", [space, fn, r, out], _cmd_avg)
    p = command("verify", "check one of the operator inequalities", [space, r, norm, out],
                _cmd_verify)
    p.add_argument("--lemma", required=True,
                   choices=["distribution", "rearrange", "operator-bound", "equicontinuity"])
    p.add_argument("--fn", help="explicit function (otherwise random, needs --seed)")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=8)
    p = command("witness", "non-compactness witness separation", [space, r, norm, out],
                _cmd_witness)
    p.add_argument("--k", type=int, required=True)
    p = command("probe", "covering/witness trends over a space family", [r, norm, out],
                _cmd_probe)
    p.add_argument("--family", required=True, help="lattice:L or lattice:START:STOP:STEP")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--svg")
    p = command("approx", "simple-function approximation by disjoint balls",
                [space, fn, norm, out], _cmd_approx)
    p.add_argument("--epsilon", type=float, required=True)
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

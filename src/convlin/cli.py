"""Command-line front end.

One subcommand per experiment, a shared flag set, and optional flat
key=value config files (``--config``).  Config keys are exactly the flag
names without the leading dashes; explicit flags override file values,
and unknown keys are rejected.  Exit codes: 0 on success, 1 for
configuration problems, 2 for numerical failures.
"""

import argparse
import sys

from .errors import ConfigError, NumericalError
from .harness import EXPERIMENTS, ExperimentSpec, run, write_result
from .models import MODELS
from .tasks import TASKS


class _Parser(argparse.ArgumentParser):
    """argparse that raises ConfigError instead of exiting with code 2."""

    def error(self, message):
        raise ConfigError(message)


_FLAGS = (
    "task", "d", "k", "n", "trials", "alpha", "b", "max-steps",
    "xhinge-steps", "snapshot-t", "seed", "models", "out", "format",
    "dump-weights",
)


def parse_n(text):
    """Parse --n: a single integer or an inclusive lo:hi:step range."""
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad n range {text!r}; expected lo:hi:step")
        try:
            lo, hi, step = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"bad n range {text!r}; expected integers") from None
        if step < 1 or hi < lo:
            raise ConfigError(f"bad n range {text!r}; need lo <= hi and step >= 1")
        return tuple(range(lo, hi + 1, step))
    try:
        return (int(text),)
    except ValueError:
        raise ConfigError(f"bad n value {text!r}") from None


def load_config_file(path):
    """Read a flat key=value config file; '#' starts a comment line."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FLAGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _bool(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean value {text!r}")


def build_parser():
    parser = _Parser(prog="convlin",
                     description="Conv-vs-one-layer training experiments")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="|".join(EXPERIMENTS))
    for name in EXPERIMENTS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--task", choices=TASKS, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--n", type=str, default=None,
                       help="single value or lo:hi:step (inclusive)")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--b", type=float, default=None)
        p.add_argument("--max-steps", type=int, default=None)
        p.add_argument("--xhinge-steps", type=int, default=None)
        p.add_argument("--snapshot-t", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--models", type=str, default=None,
                       help=f"comma-separated subset of {','.join(MODELS)} "
                            "(gen-curve and parity-curve only)")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--dump-weights", action="store_true", default=None)
    return parser


_CONVERTERS = {
    "d": int, "k": int, "trials": int, "alpha": float, "b": float,
    "max-steps": int, "xhinge-steps": int, "snapshot-t": int, "seed": int,
    "dump-weights": _bool, "n": parse_n,
}


def build_spec(args):
    """Merge config-file values under explicit flags into a spec."""
    merged = {}
    if args.config:
        for key, raw in load_config_file(args.config).items():
            conv = _CONVERTERS.get(key, str)
            merged[key.replace("-", "_")] = conv(raw)
    for key in _FLAGS:
        attr = key.replace("-", "_")
        value = getattr(args, attr)
        if value is not None:
            merged[attr] = value
    if isinstance(merged.get("n"), str):
        merged["n"] = parse_n(merged["n"])
    if isinstance(merged.get("models"), str):
        merged["models"] = tuple(m.strip() for m in merged["models"].split(",") if m.strip())

    return ExperimentSpec(experiment=args.experiment, **merged)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        spec = build_spec(args)
        result = run(spec)
        text = write_result(result, spec.out)
        if spec.out is None:
            sys.stdout.write(text)
        else:
            print(f"wrote {len(result.rows)} rows to {spec.out}")
            if "pearson_r" in result.extras:
                print(f"pearson_r = {result.extras['pearson_r']:.4f}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

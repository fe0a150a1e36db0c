"""Command-line front end.

One subcommand per experiment, a shared flag set, and optional flat
key=value config files (``--config``).  Config keys are exactly the flag
names without the leading dashes; explicit flags override file values,
and unknown keys are rejected.  argparse only collects strings; every
value, from a flag or the file, is parsed through the one flag table
`_FLAGS`, so a malformed value is a configuration error.  Exit codes: 0
on success, 1 for configuration problems, 2 for numerical failures.
"""

import argparse
import sys

from .errors import ConfigError, NumericalError
from .harness import EXPERIMENTS, ExperimentSpec, run, write_result


class _Parser(argparse.ArgumentParser):
    """argparse that raises ConfigError instead of exiting with code 2."""

    def error(self, message):
        raise ConfigError(message)


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


def _models(text):
    return tuple(m.strip() for m in text.split(",") if m.strip())


# Each flag and config key, with the parser of its text.
_FLAGS = {
    "task": str, "d": int, "k": int, "n": parse_n, "trials": int,
    "alpha": float, "b": float, "max-steps": int, "xhinge-steps": int,
    "snapshot-t": int, "seed": int, "models": _models, "out": str,
    "format": str, "dump-weights": _bool,
}


def build_parser():
    parser = _Parser(prog="convlin",
                     description="Conv-vs-one-layer training experiments")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="|".join(EXPERIMENTS))
    for name in EXPERIMENTS:
        p = sub.add_parser(name, add_help=True)
        for flag in _FLAGS:
            if flag == "dump-weights":
                p.add_argument("--dump-weights", action="store_const", const="true")
            else:
                p.add_argument("--" + flag)
        p.add_argument("--config")
    return parser


def build_spec(args):
    """Merge config-file values under explicit flags, then parse every
    value through _FLAGS into a spec."""
    merged = load_config_file(args.config) if args.config else {}
    for key in _FLAGS:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            merged[key] = value
    values = {}
    for key, text in merged.items():
        try:
            values[key.replace("-", "_")] = _FLAGS[key](text)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"bad {key} value {text!r}") from None
    return ExperimentSpec(experiment=args.experiment, **values)


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

"""Command-line front end: simulate, grid, embed, cluster, plot, diagnose.

Exit codes: 0 success, 1 usage error, 2 data, parse or file-system error
(any ``OSError``), 3 numerical failure (signal selection mismatch). A
``--config`` file of key=value lines overrides the corresponding flags.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import replace

from . import harness, svgplot
from .fileio import FileFormatError, read_text, write_communities, write_interactions
from .sampling import FIXED, GROWING, RngStream, SimulationDesign, generate_design
from .spectral import SignalSelectionError

log = logging.getLogger("hyperclust.cli")

__all__ = ["main", "build_parser"]

# config spellings of a store-true flag's value, compared case-insensitively
_FLAG_WORDS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path) -> dict[str, str]:
    """key=value lines; # starts a comment."""
    values: dict[str, str] = {}
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FileFormatError(path, line_no, f"expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(args: argparse.Namespace, path, parser: argparse.ArgumentParser) -> None:
    """Config values override already-parsed flags. Each value is converted
    and checked like the same option on the command line."""
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in commands[args.command]._actions}
    for key, text in _load_config(path).items():
        option = options.get(key)
        if option is None or not hasattr(args, key):
            raise FileFormatError(path, None, f"unknown config key {key!r}")
        if option.nargs == 0:
            value = _FLAG_WORDS.get(text.lower())
            if value is None:
                raise ValueError(f"config key {key!r}: invalid value {text!r} (choose from {', '.join(_FLAG_WORDS)})")
        else:
            try:
                value = option.type(text) if option.type else text
            except ValueError:
                raise ValueError(f"config key {key!r}: invalid value {text!r}") from None
            if option.choices is not None and value not in option.choices:
                raise ValueError(
                    f"config key {key!r}: invalid choice {text!r} (choose from {', '.join(option.choices)})"
                )
        setattr(args, key, value)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperclust", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # only the subcommands that draw random numbers take a seed
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="master seed")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output path")
    common.add_argument("--config", default=None, help="key=value file overriding flags")

    p = sub.add_parser("simulate", parents=[seeded, common], help="sample one benchmark instance")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--m", type=int, default=999)
    p.add_argument("--regime", choices=[GROWING, FIXED], default=GROWING)
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--communities-out", default=None, help="write class labels here")

    p = sub.add_parser("grid", parents=[seeded, common], help="run an (n, m) experiment sweep")
    p.add_argument("--regime", choices=[GROWING, FIXED], default=GROWING)
    p.add_argument("--m-values", default=None, help="comma-separated interaction counts")
    p.add_argument("--n-values", default=None, help="comma-separated node counts")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--selection", choices=["empirical", "oracle"], default="empirical")
    p.add_argument("--full", action="store_true", help="use the full 6x6 grid (hours)")
    p.add_argument("--timing", action="store_true", help="record wall-clock per replicate (breaks byte-reproducibility)")

    p = sub.add_parser("embed", parents=[common], help="embed an interaction file")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, default=2, help="embedding dimension")
    p.add_argument("--mode", choices=["empirical", "oracle"], default="empirical")
    p.add_argument("--communities", default=None, help="class labels (required for oracle mode)")
    p.add_argument("--c-tilde", type=float, default=None)

    p = sub.add_parser("cluster", parents=[common], help="cluster an embedding CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=None, help="cluster count (default: gap rule)")
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--dendrogram-out", default=None)

    p = sub.add_parser("plot", parents=[common], help="render SVG plots from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--kind", choices=["ari-table", "convergence", "scatter", "diagnostics"], required=True)
    p.add_argument("--metric", default="norm_VS_2inf", help="metric column for convergence plots")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp comment")

    p = sub.add_parser("diagnose", parents=[seeded, common], help="diagnostic norms of generated instances")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--m", type=int, default=999)
    p.add_argument("--regime", choices=[GROWING, FIXED], default=GROWING)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--selection", choices=["empirical", "oracle"], default="empirical")
    return parser


def _cmd_simulate(args) -> None:
    design = SimulationDesign(n=args.n, m=args.m, regime=args.regime, alpha=args.alpha, seed=args.seed)
    spec, h = generate_design(design, RngStream(args.seed))
    write_interactions(h, args.out)
    if args.communities_out:
        write_communities(spec.z, args.communities_out)
    sizes = spec.interaction_sizes()
    log.info(
        "wrote %s: n=%d m=%d sizes in [%d, %d] (mean %.2f)",
        args.out, h.n, h.m, sizes.min(), sizes.max(), sizes.mean(),
    )


def _cmd_grid(args) -> None:
    grid = harness.ExperimentGrid(regime=args.regime, replicates=args.replicates, seed=args.seed)
    if not args.full:
        grid = grid.desk_truncated()
    if args.m_values is not None:
        grid = replace(grid, m_values=_parse_int_list(args.m_values))
    if args.n_values is not None:
        grid = replace(grid, n_values=_parse_int_list(args.n_values))
    results = harness.run_grid(grid, selection=args.selection, csv_path=args.out, timing=args.timing)
    if not results:
        raise ValueError("no cell of the grid could run: every cell was skipped or every replicate failed")
    log.info("wrote %s: %d replicate rows", args.out, len(results))


def _cmd_embed(args) -> None:
    rows = harness.embed_file(
        args.input,
        args.out,
        d=args.d,
        mode=args.mode,
        communities_path=args.communities,
        c_tilde=args.c_tilde,
    )
    log.info("wrote %s: %d interactions embedded in %d dimensions", args.out, rows, args.d)


def _cmd_cluster(args) -> None:
    part = harness.cluster_file(
        args.input,
        args.out,
        k=args.k,
        k_max=args.k_max,
        dendrogram_path=args.dendrogram_out,
    )
    log.info("wrote %s: %d items in %d clusters", args.out, part.size, part.k)


def _cmd_plot(args) -> None:
    rows = list(csv.DictReader(read_text(args.results).splitlines()))
    timestamp = not args.no_timestamp
    if args.kind == "ari-table":
        paths = svgplot.plot_ari_table(rows, args.out, timestamp=timestamp)
    elif args.kind == "convergence":
        paths = [svgplot.plot_convergence(rows, args.out, metric=args.metric, timestamp=timestamp)]
    elif args.kind == "scatter":
        paths = [svgplot.plot_scatter(rows, args.out, timestamp=timestamp)]
    else:
        paths = svgplot.plot_diagnostics(rows, args.out, timestamp=timestamp)
    for path in paths:
        log.info("wrote %s", path)


def _cmd_diagnose(args) -> None:
    rows = []
    for rep in range(args.replicates):
        rows.extend(
            harness.diagnose_instance(args.n, args.m, args.regime, args.seed + rep, args.selection)
        )
    harness.write_diagnostics_csv(rows, args.out)
    log.info("wrote %s: %d metric rows", args.out, len(rows))


_HANDLERS = {
    "simulate": _cmd_simulate,
    "grid": _cmd_grid,
    "embed": _cmd_embed,
    "cluster": _cmd_cluster,
    "plot": _cmd_plot,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(args, args.config, parser)
        _HANDLERS[args.command](args)
    except (FileFormatError, svgplot.SchemaError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except SignalSelectionError as exc:
        log.error("%s", exc)
        return 3
    except ValueError as exc:
        log.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

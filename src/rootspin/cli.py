"""Command-line interface: roots, analyze, count, certify, oracle, table.

All JSON goes to stdout with sorted keys so that repeated runs are
byte-identical apart from the ``timings`` block; diagnostics go to stderr.
Exit codes: 0 success, 1 internal invariant violation, 2 invalid input,
3 resource limit, running out of memory included.

Every command writes its JSON through ``_emit``.  A report keeps its
certificate, a ``certs.CertificateFamily``, under ``"blocks"``, and
``_emit`` writes the certificate's ``(index, sign)`` blocks one block at a
time as lists of ``{"root_index": i, "sign": s}`` objects.  No
dict per root is built: on D69 or C68 those dicts would take more memory
than the roots and the 2L obstruction together.

The ``--version`` and ``--help`` options are built here with their texts
given.  click's own look their texts up through ``gettext``, and that
imports ``locale`` (0.29 MiB) in every process, though no command uses it.
Their output is the same, and so is a usage error's hint.

``run`` is the console entry of ``python -m rootspin.cli`` and of the
installed ``rootspin`` script; ``main``, which tests call through
``CliRunner``, leaves the garbage collector alone.
"""

from __future__ import annotations

import gc
import json
import sys
import time

import click

from . import __version__, certs, sigsum
from .errors import InternalCheckError, InvalidRankError, ResourceLimitError
from .rootsys import CATALOGUE, FamilyRank, format_root_list, positive_roots
from .spinor import DEFAULT_ORACLE_LIMIT, invariant_dimension

EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _family_rank(family: str, rank: int) -> FamilyRank:
    return FamilyRank(family.strip().upper(), rank)


# json.dumps writes this string as "\u0000blocks", which no other report
# value contains.
_PLACEHOLDER = "\0blocks"


def _emit(obj) -> None:
    """Write ``obj`` as one line of compact JSON with sorted keys.

    ``json.dumps`` leaves a placeholder where each ``certs.CertificateFamily``
    goes, and its blocks are written there from their tuples, in the text
    ``json.dumps`` gives the list of ``{"root_index": i, "sign": s}`` dicts.
    """
    found: list[certs.CertificateFamily] = []

    def default(o):
        if not isinstance(o, certs.CertificateFamily):
            raise TypeError(f"{type(o).__name__} is not JSON serialisable")
        found.append(o)
        return _PLACEHOLDER

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)
    pieces = text.split(json.dumps(_PLACEHOLDER))
    for piece, cert in zip(pieces, found):
        click.echo(piece + "[", nl=False)
        for b, block in enumerate(cert.blocks):
            items = ",".join(f'{{"root_index":{i},"sign":{s}}}' for i, s in block)
            click.echo(f"{',' if b else ''}[{items}]", nl=False)
        click.echo("]", nl=False)
    click.echo(pieces[-1])


def _certificate_json(cert: certs.CertificateFamily | None):
    if cert is None:
        return {"available": False}
    return {
        "available": True,
        "block_count": len(cert.blocks),
        "lower_bound": cert.lower_bound,
        "blocks": cert,
    }


def build_report(fr: FamilyRank, method: str = "auto",
                 max_r: int | None = None) -> tuple[dict, int]:
    """Assemble the analysis report; returns (report, exit_code).

    Existence and its two proofs come from ``sigsum.exists_strong_dependence``;
    the exact count, checked against the published bound, comes from
    ``sigsum.count``; this adds the JSON layout.
    """
    t_start = time.perf_counter()
    system = positive_roots(fr)
    t_existence = time.perf_counter()
    existence = sigsum.exists_strong_dependence(system)
    timings: dict[str, float] = {"existence_ms": (time.perf_counter() - t_existence) * 1000.0}

    report = {
        "family": fr.family,
        "rank": fr.rank,
        "r": system.r,
        "ambient_dim": system.ambient_dim,
        "denominator": system.denominator,
        "exists": existence.exists,
        "obstruction": "pass" if existence.obstruction.passed else "fail",
        "certificate": _certificate_json(existence.certificate),
    }
    exit_code = 0

    # A report that counts nothing is labelled by the route that proved existence.
    report["method"] = existence.method
    if not existence.exists:
        report["count"] = {"zero": True}
    else:
        # A forced engine past its limit refuses (exit 3); auto just skips.
        _, limit = sigsum.choose_engine(system.r, method, max_r)
        result = None
        if method != "auto" or system.r <= limit:
            try:
                result = sigsum.count(system, method, max_r)
            except ResourceLimitError as exc:
                click.echo(f"resource limit: {exc}", err=True)
                exit_code = EXIT_RESOURCE
        if result is not None:
            report["count"] = {"exact": result.value}
            report["method"] = result.method
            timings["count_ms"] = result.elapsed * 1000.0
        else:
            # Partial report: existence plus the published bound only.
            report["count"] = {"lower_bound": certs.lower_bound(fr)}

    timings["total_ms"] = (time.perf_counter() - t_start) * 1000.0
    report["timings"] = {k: round(v, 3) for k, v in sorted(timings.items())}
    return report, exit_code


def _count_text(count: dict, exact: str, bound: str) -> str:
    """A report's ``count`` as text: ``<exact> N``, ``<bound> N`` or ``0``."""
    if "exact" in count:
        return f"{exact} {count['exact']}"
    if "lower_bound" in count:
        return f"{bound} {count['lower_bound']}"
    return "0"


def _print_report_text(report: dict) -> None:
    shown = _count_text(report["count"], "exact", "at least")
    click.echo(f"system       {report['family']}{report['rank']}")
    click.echo(f"roots        {report['r']} in dimension {report['ambient_dim']}"
               f" (denominator {report['denominator']})")
    click.echo(f"obstruction  {report['obstruction']}")
    click.echo(f"exists       {'yes' if report['exists'] else 'no'}")
    click.echo(f"count        {shown}")
    click.echo(f"method       {report['method']}")
    click.echo(f"time         {report['timings']['total_ms']} ms")


def _show_help(ctx: click.Context, param, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color)
        ctx.exit()


def _show_version(ctx: click.Context, param, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(f"{ctx.find_root().info_name}, version {__version__}", color=ctx.color)
        ctx.exit()


class _OwnHelp:
    """Builds the ``--help`` option with its text given: click's own looks
    its text up through ``gettext``, which imports ``locale``."""

    _own_help = None

    def get_help_option(self, ctx):
        names = self.get_help_option_names(ctx)
        if not names or not self.add_help_option:
            return None
        if self._own_help is None:  # one object, which click's callback order relies on
            self._own_help = click.Option(names, is_flag=True, expose_value=False, is_eager=True,
                                          callback=_show_help, help="Show this message and exit.")
        return self._own_help


class _Command(_OwnHelp, click.Command):
    """A command of ``main``, with the ``--help`` of ``_OwnHelp``."""


class _Main(_OwnHelp, click.Group):
    """Turns the library's refusals into exit codes 1, 2 and 3 for every command."""

    command_class = _Command

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InvalidRankError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INVALID)
        except InternalCheckError as exc:
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(EXIT_INTERNAL)
        except (ResourceLimitError, MemoryError) as exc:
            click.echo(f"resource limit: {str(exc) or 'out of memory'}", err=True)
            sys.exit(EXIT_RESOURCE)


@click.group(cls=_Main)
@click.option("--version", is_flag=True, expose_value=False, is_eager=True,
              callback=_show_version, help="Show the version and exit.")
def main() -> None:
    """Exact invariant-spinor dimensions from positive root combinatorics."""


@main.command("roots")
@click.argument("family")
@click.argument("rank", type=int)
def cmd_roots(family: str, rank: int) -> None:
    """Print the ordered root list in the plain text interchange format."""
    fr = _family_rank(family, rank)
    click.echo(format_root_list(positive_roots(fr)), nl=False)


@main.command("analyze")
@click.argument("family")
@click.argument("rank", type=int)
@click.option("--method", type=click.Choice(sigsum.METHODS), default="auto")
@click.option("--max-r", "max_r", type=click.IntRange(min=0), default=None,
              help=f"Largest r to count exactly (default: {sigsum.DEFAULT_MITM_LIMIT} for auto, "
                   "else the forced engine's own limit; 0 counts nothing).")
@click.option("--json", "as_json", is_flag=True)
def cmd_analyze(family: str, rank: int, method: str, max_r: int | None, as_json: bool) -> None:
    """Full existence/count/certificate report for one system."""
    report, exit_code = build_report(_family_rank(family, rank), method=method, max_r=max_r)
    if as_json:
        _emit(report)
    else:
        _print_report_text(report)
    sys.exit(exit_code)


@main.command("count")
@click.argument("family")
@click.argument("rank", type=int)
@click.option("--method", type=click.Choice(sigsum.METHODS), default="auto")
@click.option("--max-r", "max_r", type=click.IntRange(min=0), default=None,
              help=f"Largest r the engine may count (default: brute {sigsum.DEFAULT_BRUTE_LIMIT}, "
                   f"mitm {sigsum.DEFAULT_MITM_LIMIT}).")
@click.option("--json", "as_json", is_flag=True)
def cmd_count(family: str, rank: int, method: str, max_r: int | None, as_json: bool) -> None:
    """Exact count of zero signed sums (no existence shortcuts)."""
    fr = _family_rank(family, rank)
    system = positive_roots(fr)
    result = sigsum.count(system, method, max_r)
    if as_json:
        _emit({
            "family": fr.family,
            "rank": fr.rank,
            "r": system.r,
            "count": {"exact": result.value},
            "method": result.method,
            "timings": {"count_ms": round(result.elapsed * 1000.0, 3)},
        })
    else:
        click.echo(f"count({fr}) = {result.value} [{result.method}, "
                   f"{result.elapsed * 1000.0:.3f} ms]")


@main.command("certify")
@click.argument("family")
@click.argument("rank", type=int)
def cmd_certify(family: str, rank: int) -> None:
    """Emit the verified block certificate, or available:false."""
    _emit(_certificate_json(certs.certificate(_family_rank(family, rank))))


@main.command("oracle")
@click.argument("family")
@click.argument("rank", type=int)
@click.option("--max-r", "max_r", type=click.IntRange(0, 20),
              default=DEFAULT_ORACLE_LIMIT,
              help="Largest r the oracle runs on (at most 20: the work grows as r * 2^r).")
def cmd_oracle(family: str, rank: int, max_r: int) -> None:
    """Invariant dimension through the exterior-algebra model."""
    system = positive_roots(_family_rank(family, rank))
    _emit({"dimension": invariant_dimension(system, limit_r=max_r)})


@main.command("table")
@click.option("--max-r", "max_r", type=click.IntRange(min=0), default=None,
              help="Largest r for which exact counting is attempted "
                   f"(default {sigsum.DEFAULT_MITM_LIMIT}).")
@click.option("--json", "as_json", is_flag=True)
def cmd_table(max_r: int | None, as_json: bool) -> None:
    """Reports for the whole catalogue of systems."""
    reports = []
    worst_exit = 0
    for fr in CATALOGUE:
        report, exit_code = build_report(fr, max_r=max_r)
        worst_exit = max(worst_exit, exit_code)
        reports.append(report)
    if as_json:
        _emit(reports)
    else:
        header = f"{'system':<8}{'r':>5}  {'exists':<8}{'obstruction':<13}{'count':<22}method"
        click.echo(header)
        click.echo("-" * len(header))
        for rep in reports:
            shown = _count_text(rep["count"], "=", ">=")
            click.echo(
                f"{rep['family'] + str(rep['rank']):<8}{rep['r']:>5}  "
                f"{'yes' if rep['exists'] else 'no':<8}{rep['obstruction']:<13}"
                f"{shown:<22}{rep['method']}"
            )
    sys.exit(worst_exit)


def run() -> None:
    """Run ``main``, then ``gc.freeze()`` on the way out of the process.

    ``main`` always ends in ``SystemExit``, after which only the
    interpreter's shutdown runs.  Its collections walk every object numpy,
    click and the package have made, unless they are frozen: on a 2-core
    Xeon, from the command's return to the process being reaped took 43-52
    ms, for A1 as for D69, and takes 10-14 ms frozen.  The exit code,
    atexit handlers and the flushing of stdio are untouched.
    """
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()

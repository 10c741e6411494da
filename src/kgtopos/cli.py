"""Command-line interface.

Exit codes: 0 success, 1 check failure, 2 input error, 3 size-cap abort
or memory exhaustion.  Commands raise library errors; the root group's
`invoke` is the one place where a KgToposError becomes `error: ...` on
stderr and exit 3 (SizeCapError) or 2 (any other), and a MemoryError
`error: out of memory ...` and exit 3.  A closed stdout pipe (`kgtopos
matrices g.txt | head`) is not an error: the rest of the output is
dropped, nothing goes to stderr, and the exit code is 0.  All
randomness is seeded; --seed falls back to the KGTOPOS_SEED environment
variable and then to 0, and the seed used is always echoed in
verification reports.
"""

from __future__ import annotations

import json
import os
import sys
from functools import partial
from itertools import chain, repeat
from pathlib import Path as FilePath
from typing import Iterable

import click

from . import matrices as mx
from . import linegraph as lg
from .errors import KgParseError, KgToposError, SchemaError, SizeCapError
from .freecat import build_free_category
from .jsonout import JoinedRows, write_json
from .kg import KnowledgeGraph, parse_kg
from .sheaves import (
    DEFAULT_SECTION_CAP,
    check_adjunction,
    glue,
    global_sections,
    is_sheaf,
    load_family,
    load_presheaf,
    omega as build_omega,
    sheafify,
)
from .sites import DEFAULT_SIEVE_CAP, build_site, topology_to_dict
from .verify import run_verification

INPUT_ERROR, SIZE_ERROR = 2, 3


def _read_graph(path: str) -> KnowledgeGraph:
    try:
        text = FilePath(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise KgParseError(f"{path}: not UTF-8: {exc}") from exc
    return parse_kg(text)


def _read_json(path: str) -> dict:
    try:
        return json.loads(FilePath(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        # Nesting past the recursion limit, or an integer literal past
        # the digit limit of int conversion.
        raise SchemaError(f"{path}: JSON too deep or too long to read: {exc}") from exc


# Output text is joined into pieces of at least this many characters
# before it reaches stdout.  The text layer alone hands it on every 8 KiB,
# and an in-memory stdout (click.testing.CliRunner's) then regrows its
# buffer by an eighth each time: some 50 copies for a 4 MB document,
# whose freed blocks leave the heap fragmented, so that the peak memory
# of repeated in-process calls varies by megabytes from run to run.
PIECE_CHARS = 1 << 20


class _Pieces:
    """Writes text to stdout in pieces of PIECE_CHARS or more; `flush`
    writes the rest.  Text held when a command fails is dropped, and
    commands raise their errors before their first byte anyway."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.size = 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= PIECE_CHARS:
            self.flush()

    def writelines(self, texts: Iterable[str]) -> None:
        for text in texts:
            self.write(text)

    def flush(self) -> None:
        if self.parts:
            sys.stdout.write("".join(self.parts))
        self.parts, self.size = [], 0


def _emit_json(data: dict) -> None:
    """Write json.dumps(data, indent=2) and a newline to stdout, in
    pieces; iterators in `data` are streamed as arrays."""
    out = _Pieces()
    write_json(data, out.write)
    out.flush()


class KgToposGroup(click.Group):
    """Root group: maps every library error raised by a command, and
    memory exhaustion, to its exit code, and a closed stdout pipe to a
    quiet exit."""

    def invoke(self, ctx: click.Context):
        try:
            try:
                return super().invoke(ctx)
            except KgToposError as exc:
                click.echo(f"error: {exc}", err=True)
                ctx.exit(SIZE_ERROR if isinstance(exc, SizeCapError) else INPUT_ERROR)
            except MemoryError:
                click.echo("error: out of memory; use a smaller graph or lower caps", err=True)
                ctx.exit(SIZE_ERROR)
            finally:
                sys.stdout.flush()  # so a closed pipe shows here, not at shutdown
        except BrokenPipeError:
            # The reader has gone: what is left of the output, and the
            # flush at interpreter shutdown, go to devnull.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            ctx.exit(0)


@click.group(cls=KgToposGroup)
def main() -> None:
    """Exact constructions and machine checks on finite knowledge graphs."""


EXISTING_FILE = click.Path(exists=True, dir_okay=False)


def graph_argument(required: bool = True):
    return click.argument("graph", required=required, type=EXISTING_FILE)


presheaf_argument = click.argument("presheaf", type=EXISTING_FILE)
topology_option = click.option(
    "--topology", type=click.Choice(["path", "atomic"]), default="path"
)
max_path_length_option = click.option(
    "--max-path-length", type=click.IntRange(min=0), default=None
)
sieve_cap_option = click.option(
    "--sieve-cap", type=click.IntRange(min=0), default=DEFAULT_SIEVE_CAP
)
section_cap_option = click.option(
    "--section-cap", type=click.IntRange(min=0), default=DEFAULT_SECTION_CAP
)


def site_options(fn):
    """--topology, --max-path-length and --sieve-cap, in that order."""
    return topology_option(max_path_length_option(sieve_cap_option(fn)))


# The incidence builders `verify` calls; no command reads this table.
# perfbench's tracer patches it and its tests pin MATRIX_BUILDERS["head"],
# so the next change to the benchmark removes it.
MATRIX_BUILDERS = {"head": mx.head_incidence, "tail": mx.tail_incidence}


@main.command()
@graph_argument()
@click.option("--head", "selected", flag_value="head", help="Head incidence matrix.")
@click.option("--tail", "selected", flag_value="tail", help="Tail incidence matrix.")
@click.option("--gram-out", "selected", flag_value="gram-out", help="Shared-head products.")
@click.option("--gram-in", "selected", flag_value="gram-in", help="Shared-tail products.")
@click.option("--adjacency-out", "selected", flag_value="adjacency-out",
              help="Out-line adjacency matrix.")
@click.option("--adjacency-in", "selected", flag_value="adjacency-in",
              help="In-line adjacency matrix.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def matrices(graph: str, selected: str | None, fmt: str) -> None:
    """Emit incidence and line-operator matrices of GRAPH."""
    kg = _read_graph(graph)
    names = [selected] if selected else list(mx.MATRICES)
    if fmt == "json":
        _emit_json(
            {
                name.replace("-", "_"): JoinedRows(partial(mx.row_texts, kg, name))
                for name in names
            }
        )
        return
    out = _Pieces()
    for k, name in enumerate(names):
        if len(names) > 1:
            if k:
                out.write("\n")
            out.write(f"# {name}\n")
        _write_csv(out, kg, name)
    out.flush()


def _write_csv(out: _Pieces, kg: KnowledgeGraph, name: str) -> None:
    """The named matrix as CSV: one line of comma-separated entries per row."""
    out.writelines(chain.from_iterable(zip(mx.row_texts(kg, name, ","), repeat("\n"))))


@main.command()
@graph_argument()
@click.option("--direction", type=click.Choice(["out", "in"]), default="out")
@click.option("--format", "fmt", type=click.Choice(["dot", "csv", "json"]), default="dot")
def line(graph: str, direction: str, fmt: str) -> None:
    """Emit the out- or in-line digraph of GRAPH."""
    kg = _read_graph(graph)
    if fmt == "csv":
        out = _Pieces()
        _write_csv(out, kg, f"adjacency-{direction}")
        out.flush()
        return
    if direction == "out":
        digraph, partition = lg.build_out_line(kg), lg.head_partition
    else:
        digraph, partition = lg.build_in_line(kg), lg.tail_partition
    if fmt == "dot":
        sys.stdout.write(lg.to_dot(digraph, kg, name=f"{direction}_line"))
    else:
        _emit_json(
            {
                "direction": direction,
                "vertices": [str(t) for t in kg.triples],
                "adjacency": digraph.adjacency,
                # The line digraph's components are its fibres.
                "components": partition(kg),
            }
        )


@main.command()
@graph_argument()
@max_path_length_option
def freecat(graph: str, max_path_length: int | None) -> None:
    """Emit the path category of GRAPH as JSON."""
    _emit_json(build_free_category(_read_graph(graph), max_path_length).to_dict())


@main.command()
@graph_argument()
@site_options
def covers(graph: str, topology: str, max_path_length: int | None, sieve_cap: int) -> None:
    """Emit the covering sieves of GRAPH's site as JSON."""
    site = build_site(_read_graph(graph), topology, max_path_length, sieve_cap)
    _emit_json(topology_to_dict(site, topology))


@main.group()
def sheaf() -> None:
    """Sheaf workflows on a site built from a graph."""


def _load_site_and_presheaf(
    graph: str,
    presheaf_path: str,
    topology: str,
    max_path_length: int | None,
    sieve_cap: int,
):
    site = build_site(_read_graph(graph), topology, max_path_length, sieve_cap)
    presheaf = load_presheaf(site.category.kg, _read_json(presheaf_path))
    return site, presheaf


@sheaf.command()
@graph_argument()
@presheaf_argument
@site_options
def check(graph, presheaf, topology, max_path_length, sieve_cap) -> None:
    """Report whether PRESHEAF satisfies the sheaf condition."""
    site, data = _load_site_and_presheaf(
        graph, presheaf, topology, max_path_length, sieve_cap
    )
    result = is_sheaf(data, site)
    payload = {"is_sheaf": result.is_sheaf}
    if result.counterexample:
        payload["counterexample"] = result.counterexample
    _emit_json(payload)
    sys.exit(0 if result.is_sheaf else 1)


@sheaf.command(name="glue")
@graph_argument()
@presheaf_argument
@click.option("--family", "family_path", required=True, type=EXISTING_FILE,
              help="JSON {object, assignment: {path key: section}}.")
@site_options
def glue_cmd(graph, presheaf, family_path, topology, max_path_length, sieve_cap) -> None:
    """Glue a matching family to its unique section."""
    site, data = _load_site_and_presheaf(
        graph, presheaf, topology, max_path_length, sieve_cap
    )
    family = load_family(site.category, data, _read_json(family_path))
    obj = family.sieve.obj
    if not site.covers(family.sieve):
        raise SchemaError(f"the given family does not generate a covering sieve on {obj}")
    _emit_json({"object": obj, "section": glue(data, family)})


@sheaf.command(name="sheafify")
@graph_argument()
@presheaf_argument
@site_options
def sheafify_cmd(graph, presheaf, topology, max_path_length, sieve_cap) -> None:
    """Sheafify PRESHEAF and report per-object section counts."""
    site, data = _load_site_and_presheaf(
        graph, presheaf, topology, max_path_length, sieve_cap
    )
    result = sheafify(data, site)
    _emit_json(
        {
            "section_counts": {
                obj: len(result.sheaf.sections[obj]) for obj in site.category.objects
            },
            "is_sheaf": bool(is_sheaf(result.sheaf, site)),
            "sheaf": result.sheaf.to_dict(),
        }
    )


@sheaf.command(name="global")
@graph_argument()
@presheaf_argument
@site_options
def global_cmd(graph, presheaf, topology, max_path_length, sieve_cap) -> None:
    """Enumerate compatible families of sections across all objects."""
    _, data = _load_site_and_presheaf(
        graph, presheaf, topology, max_path_length, sieve_cap
    )
    sections = global_sections(data)
    _emit_json({"count": len(sections), "sections": sections})


@sheaf.command(name="omega")
@graph_argument()
@site_options
def omega_cmd(graph, topology, max_path_length, sieve_cap) -> None:
    """Emit the subobject classifier of the site."""
    site = build_site(_read_graph(graph), topology, max_path_length, sieve_cap)
    classifier = build_omega(site)
    _emit_json(
        {
            "section_counts": {
                obj: len(classifier.sections[obj]) for obj in site.category.objects
            },
            "is_sheaf": bool(is_sheaf(classifier, site)),
            "omega": classifier.to_dict(),
        }
    )


@sheaf.command(name="adjoint")
@graph_argument()
@presheaf_argument
@click.option("--other", required=True, type=EXISTING_FILE,
              help="Presheaf JSON for the path-site side.")
@section_cap_option
@max_path_length_option
@sieve_cap_option
def adjoint_cmd(graph, presheaf, other, section_cap, max_path_length, sieve_cap) -> None:
    """Compare hom-set cardinalities across the two transports."""
    site, atomic_side = _load_site_and_presheaf(
        graph, presheaf, "path", max_path_length, sieve_cap
    )
    path_side = load_presheaf(site.category.kg, _read_json(other))
    report = check_adjunction(atomic_side, path_side, site, section_cap)
    _emit_json(
        {
            "passed": report.passed,
            "hom_into_path_sheaf": report.left_count,
            "hom_from_atomic_presheaf": report.right_count,
            "bijective": report.bijective,
            "details": list(report.details),
        }
    )
    sys.exit(0 if report.passed else 1)


class _EnvvarOption(click.Option):
    """An option whose conversion errors name its environment variable
    when the value came from there.  click records a value's source only
    after converting it, so consume_value records it first."""

    def consume_value(self, ctx, opts):
        value, source = super().consume_value(ctx, opts)
        ctx.set_parameter_source(self.name, source)
        return value, source

    def get_error_hint(self, ctx):
        hint = super().get_error_hint(ctx)
        source = ctx and ctx.get_parameter_source(self.name)
        if source is click.core.ParameterSource.ENVIRONMENT:
            hint += f" (from ${self.envvar})"
        return hint


@main.command()
@graph_argument(required=False)
@click.option("--random", "random_mode", is_flag=True, help="Run the seeded property suites.")
@click.option("--cases", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--seed", cls=_EnvvarOption, type=int, default=0, envvar="KGTOPOS_SEED",
              help="Defaults to $KGTOPOS_SEED, then 0.")
@click.option("--max-size", type=click.IntRange(min=1), default=60, show_default=True,
              help="Largest random graph (triples) in the property suites.")
@max_path_length_option
@sieve_cap_option
@section_cap_option
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def verify(
    graph, random_mode, cases, seed, max_size, max_path_length, sieve_cap, section_cap, fmt
) -> None:
    """Run every applicable structural check on GRAPH and/or random cases."""
    if graph is None and not random_mode:
        raise KgToposError("give a graph file, --random, or both")
    report = run_verification(
        None if graph is None else _read_graph(graph),
        random_mode=random_mode,
        cases=cases,
        seed=seed,
        max_size=max_size,
        max_path_length=max_path_length,
        sieve_cap=sieve_cap,
        section_cap=section_cap,
    )
    if fmt == "json":
        _emit_json(report.to_dict())
    else:
        for result in report.checks:
            line = f"{result.status.upper():7s} {result.name} ({result.seconds:.3f}s)"
            if result.detail:
                line += f" -- {result.detail}"
            sys.stdout.write(line + "\n")
        summary = "all checks passed" if report.passed else "CHECK FAILURES"
        sys.stdout.write(f"seed={report.seed} {summary}\n")
    sys.exit(report.exit_code)


if __name__ == "__main__":
    main()

"""Seeded kernel sources for the benchmark, with their expected accesses.

Each generated kernel is frontend text for ``repro.ir.parse_kernel``
plus what the benchmark itself knows about it: the array accesses of
one loop iteration in C evaluation order, the loop's bounds and the
target AGU.  The output checks compare the compiler's listings against
this record, never against the compiler's own reading of the source.

The kernel mix is the program's own kernel library: every generated
kernel is one of the 26 loop bodies of the ``full`` suite
(``repro.workloads.KERNELS``), frozen below so that a later change to
the library does not change the benchmark's inputs.  The body keeps
the library kernel's arrays, accesses per array, coefficient tables,
subscript strides, relative offsets and trip count; the random draw
only shifts every array's subscripts by a per-array constant, which
makes the source (and so the cache key) distinct without changing the
allocation problem.  The AGU cycles over the EXP-S1 grid's K = 2..4
and M = 1, 2, 4.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

#: The library's kernels: (name, trip count, loop-body statements).
LIBRARY = (
    ("paper_example", 99, (
        "A[i+1]", "A[i]", "A[i+2]", "A[i-1]", "A[i+1]", "A[i]", "A[i-2]")),
    ("fir8", 120, (
        "acc = x[i]*h[0] + x[i+1]*h[1] + x[i+2]*h[2] + x[i+3]*h[3]"
        " + x[i+4]*h[4] + x[i+5]*h[5] + x[i+6]*h[6] + x[i+7]*h[7]",
        "y[i] = acc")),
    ("fir16", 140, (
        "acc = x[i]*h[0] + x[i+1]*h[1] + x[i+2]*h[2] + x[i+3]*h[3]"
        " + x[i+4]*h[4] + x[i+5]*h[5] + x[i+6]*h[6] + x[i+7]*h[7]"
        " + x[i+8]*h[8] + x[i+9]*h[9] + x[i+10]*h[10] + x[i+11]*h[11]"
        " + x[i+12]*h[12] + x[i+13]*h[13] + x[i+14]*h[14]"
        " + x[i+15]*h[15]",
        "y[i] = acc")),
    ("fir8_symmetric", 120, (
        "acc = (x[i] + x[i+7])*h[0] + (x[i+1] + x[i+6])*h[1]"
        " + (x[i+2] + x[i+5])*h[2] + (x[i+3] + x[i+4])*h[3]",
        "y[i] = acc")),
    ("iir_biquad_df1", 118, (
        "y[i] = b0*x[i] + b1*x[i-1] + b2*x[i-2] - a1*y[i-1] - a2*y[i-2]",)),
    ("iir_biquad_df2", 118, (
        "w[i] = x[i] - a1*w[i-1] - a2*w[i-2]",
        "y[i] = b0*w[i] + b1*w[i-1] + b2*w[i-2]")),
    ("convolution8", 142, (
        "acc = x[i]*h[0] + x[i-1]*h[1] + x[i-2]*h[2] + x[i-3]*h[3]"
        " + x[i-4]*h[4] + x[i-5]*h[5] + x[i-6]*h[6] + x[i-7]*h[7]",
        "y[i] = acc")),
    ("correlation5", 120, (
        "acc = x[i]*y[i] + x[i+1]*y[i+1] + x[i+2]*y[i+2]"
        " + x[i+3]*y[i+3] + x[i+4]*y[i+4]",
        "r[i] = acc")),
    ("moving_average4", 117, (
        "y[i] = (x[i] + x[i-1] + x[i-2] + x[i-3]) / 4",)),
    ("dot_product", 128, ("s += x[i]*y[i]",)),
    ("vector_add", 128, ("z[i] = x[i] + y[i]",)),
    ("energy", 128, ("s += x[i]*x[i]",)),
    ("lms_update", 64, ("h[i] += mu*e*x[i]",)),
    ("matvec_row4", 120, (
        "acc = a[4*i]*b[0] + a[4*i+1]*b[1] + a[4*i+2]*b[2]"
        " + a[4*i+3]*b[3]",
        "c[i] = acc")),
    ("fft_butterfly", 120, (
        "tr = x[2*i+240]*wr - x[2*i+241]*wi",
        "ti = x[2*i+240]*wi + x[2*i+241]*wr",
        "x[2*i+240] = x[2*i] - tr",
        "x[2*i+241] = x[2*i+1] - ti",
        "x[2*i] += tr",
        "x[2*i+1] += ti")),
    ("complex_mac", 120, (
        "yr[i] = ar[i]*br[i] - ai[i]*bi[i]",
        "yi[i] = ar[i]*bi[i] + ai[i]*br[i]")),
    ("delay_line", 100, ("d[i] = d[i+1]",)),
    ("downsample2", 120, ("y[i] = x[2*i]",)),
    ("wavelet_lift", 120, ("d[i] = x[2*i+1] - (x[2*i] + x[2*i+2]) / 2",)),
    ("biquad_cascade2", 118, (
        "u[i] = b0*x[i] + b1*x[i-1] + b2*x[i-2] - a1*u[i-1] - a2*u[i-2]",
        "y[i] = c0*u[i] + c1*u[i-1] + c2*u[i-2] - d1*y[i-1] - d2*y[i-2]")),
    ("goertzel", 118, ("s[i] = x[i] + c*s[i-1] - s[i-2]",)),
    ("saxpy", 128, ("y[i] += a*x[i]",)),
    ("vector_scale", 128, ("y[i] = x[i]*g",)),
    ("fir4_decimate2", 120, (
        "acc = x[2*i]*h[0] + x[2*i+1]*h[1] + x[2*i+2]*h[2]"
        " + x[2*i+3]*h[3]",
        "y[i] = acc")),
    ("lattice2", 118, (
        "f[i] = x[i] - k1*g[i-1]",
        "g[i] = g[i-1] + k1*f[i] - k2*g[i-2]")),
    ("autocorr4", 120, (
        "r0 += x[i]*x[i]", "r1 += x[i]*x[i+1]", "r2 += x[i]*x[i+2]",
        "r3 += x[i]*x[i+3]")),
)

#: The AGUs kernels cycle over: EXP-S1's K = 2..4 by M = 1, 2, 4.
AGUS = tuple((k, m) for m in (1, 2, 4) for k in (2, 3, 4))
#: Largest subscript shift of an array indexed by ``i`` and of a
#: coefficient table (constant subscripts only).
SIGNAL_SHIFT = 31
TABLE_SHIFT = 7

#: The known tail of the exact phase-1 search: one-array groups of
#: 16-17 accesses (offsets in [-4, 4]) in a stride-2 loop at K = 4,
#: M = 1.  Each took 38-48 ms to compile, ten times a library kernel;
#: other draws of this kind take up to 0.36 s.  The offsets are frozen
#: seeded draws, chosen for a cost that is high but alike.
HEAVY_OFFSETS = (
    (2, 1, -4, -3, -1, -1, 0, -3, -4, 1, -3, 1, 3, 1, -1, -3, 0),
    (3, 4, -1, 3, 3, 3, -4, 4, -3, 0, -3, -1, 4, 4, -1, 1, -3),
    (1, 3, -3, 0, 1, 4, -1, -4, -4, 1, 1, 3, 0, 4, -2, 2),
)
HEAVY_AGU = (4, 1)

_SUBSCRIPT = re.compile(r"(\w+)\[([^\]]*)\]")
_AFFINE = re.compile(r"(?:(\d+)\*)?i(?:([+-])(\d+))?")
_ASSIGN = re.compile(r"(.*?)\s*([+-]?=)\s*(.*)")
_NAME = re.compile(r"[A-Za-z_]\w*")


@dataclass(frozen=True)
class GenKernel:
    """One generated kernel and the facts the checks rely on."""

    name: str
    source: str
    #: ``(array, coefficient, offset)`` per access of one iteration,
    #: in C evaluation order (right-hand side, then the written target,
    #: read first when the assignment is compound).
    accesses: tuple[tuple[str, int, int], ...]
    start: int
    step: int
    n_iterations: int
    registers: int
    modify_range: int


def _subscript(coefficient: int, offset: int) -> str:
    if coefficient == 0:
        return str(offset)
    index = "i" if coefficient == 1 else f"{coefficient}*i"
    if offset == 0:
        return index
    return f"{index}+{offset}" if offset > 0 else f"{index}-{-offset}"


def _access(array: str, subscript: str,
            shifts: dict[str, int]) -> tuple[str, int, int]:
    if subscript.isdigit():
        return array, 0, int(subscript) + shifts.get(array, 0)
    match = _AFFINE.fullmatch(subscript)
    if match is None:
        raise ValueError(f"unsupported subscript {array}[{subscript}]")
    coefficient, sign, amount = match.groups()
    offset = int(amount or 0) * (-1 if sign == "-" else 1)
    return array, int(coefficient or 1), offset + shifts.get(array, 0)


def render(name: str, statements, n_iterations: int, step: int,
           shifts: dict[str, int], agu: tuple[int, int]) -> GenKernel:
    """A kernel from loop-body ``statements`` with every array's
    subscripts shifted by ``shifts[array]``; the accesses are recorded
    as the statements are rewritten."""
    accesses: list[tuple[str, int, int]] = []
    body: list[str] = []

    def rewrite(text: str) -> str:
        def one(match) -> str:
            access = _access(match.group(1), match.group(2), shifts)
            accesses.append(access)
            return f"{access[0]}[{_subscript(*access[1:])}]"
        return _SUBSCRIPT.sub(one, text)

    for statement in statements:
        match = _ASSIGN.fullmatch(statement)
        if match is None:
            body.append(rewrite(statement))
            continue
        target, operator, rhs = match.groups()
        rhs = rewrite(rhs)
        reads = len(accesses)
        target = rewrite(target)
        if len(accesses) > reads and operator != "=":
            accesses.append(accesses[-1])  # read, then written
        body.append(f"{target} {operator} {rhs}")

    start = max([0] + [-(offset // coefficient)
                       for _, coefficient, offset in accesses
                       if coefficient])
    last = start + (n_iterations - 1) * step
    sizes: dict[str, int] = {}
    for array, coefficient, offset in accesses:
        sizes[array] = max(sizes.get(array, 0),
                           coefficient * last + offset + 1)
    scalars = dict.fromkeys(
        word for statement in statements
        for word in _NAME.findall(_SUBSCRIPT.sub("", statement))
        if word != "i" and word not in sizes)
    decls = [f"{array}[{size}]" for array, size in sizes.items()]
    update = "i++" if step == 1 else f"i += {step}"
    text = ";\n    ".join(body)
    source = (f"int {', '.join(decls + list(scalars))};\n"
              f"for (i = {start}; i < {start + n_iterations * step}; "
              f"{update}) {{\n    {text};\n}}\n")
    return GenKernel(name=name, source=source, accesses=tuple(accesses),
                     start=start, step=step, n_iterations=n_iterations,
                     registers=agu[0], modify_range=agu[1])


def make_kernel(rng: random.Random, name: str, shape: int) -> GenKernel:
    """Draw one kernel of shape class ``shape``: library kernel
    ``shape % 26`` on AGU ``shape % 9``, so any 234 consecutive
    kernels hold every pairing once.  The draw is the per-array
    subscript shift."""
    _, n_iterations, statements = LIBRARY[shape % len(LIBRARY)]
    tables: dict[str, bool] = {}
    for statement in statements:
        for array, subscript in _SUBSCRIPT.findall(statement):
            tables[array] = tables.get(array, True) and subscript.isdigit()
    shifts = {array: rng.randint(0, TABLE_SHIFT if table else SIGNAL_SHIFT)
              for array, table in tables.items()}
    return render(name, statements, n_iterations, 1, shifts,
                  AGUS[shape % len(AGUS)])


def make_kernels(seed: int, stream: str, count: int,
                 seen: set | None = None) -> list[GenKernel]:
    """``count`` distinct kernels of one named stream.

    The same ``(seed, stream, count, seen)`` always gives the same
    kernels.  A draw whose source and AGU repeat one already in
    ``seen`` (which is updated) is drawn again, so kernels made
    against one ``seen`` set never share a cache key.
    """
    rng = random.Random(f"{stream}:{seed}")
    seen = set() if seen is None else seen
    kernels: list[GenKernel] = []
    while len(kernels) < count:
        index = len(kernels)
        kernel = make_kernel(rng, f"{stream}-{seed}-{index}", index)
        key = (kernel.source, kernel.registers, kernel.modify_range)
        if key not in seen:
            seen.add(key)
            kernels.append(kernel)
    return kernels


def heavy_kernels(count: int) -> list[GenKernel]:
    """``count`` kernels of the search's known tail, the same for every
    seed: the :data:`HEAVY_OFFSETS` in turn, each repeat shifted by one
    more element, so the sources differ and the search does not."""
    kernels = []
    for index in range(count):
        offsets = HEAVY_OFFSETS[index % len(HEAVY_OFFSETS)]
        terms = " + ".join(f"x[{_subscript(1, offset)}]"
                           for offset in offsets)
        kernels.append(render(f"heavy-{index}", (f"acc = {terms}",), 46, 2,
                              {"x": index // len(HEAVY_OFFSETS)},
                              HEAVY_AGU))
    return kernels

"""Output checks that recompute, rather than replay, the program's answers.

* :func:`check_listing` steps a generated AGU listing through its own
  small interpreter and checks that every ``USE`` addresses the access
  the benchmark wrote into the kernel, over several iterations.
* :func:`check_s1_grid` recomposes every EXP-S1 grid point from public
  solver calls and checks the method's properties on each pattern.

Each check raises :class:`CheckError` with the first discrepancy.
"""

from __future__ import annotations

import re
from statistics import mean

from perfbench.kernels import GenKernel


class CheckError(Exception):
    """A program output disagrees with the benchmark's own computation."""


_HEADER = re.compile(r"; registers used: (\d+), unit-cost "
                     r"instructions/iteration: (\d+)")
_LDAR = re.compile(r"LDAR\s+AR(\d+), &(\w+)\[(?:(?:(-?\d+)\*)?i([+-]\d+)?"
                   r"|(-?\d+))\]$")
_MODIFY = re.compile(r"(ADAR|SBAR)\s+AR(\d+), #(\d+)$")
_USE = re.compile(r"USE\s+\*\(AR(\d+)\)(?:([+-])(\d+))?$")

#: Loop iterations each listing is stepped through at most.
CHECK_ITERATIONS = 8


def _parse(listing: str):
    """``(header_cost, prologue, body)`` of a listing; instructions
    are tuples ``("ldar", reg, array, coefficient, offset)``,
    ``("mod", reg, delta)`` or ``("use", reg, post_modify)``."""
    header_cost = None
    section = None
    prologue: list[tuple] = []
    body: list[tuple] = []
    for line in listing.splitlines():
        text = line.split(";", 1)[0].strip()
        if not text:
            match = _HEADER.match(line.strip())
            if match:
                header_cost = int(match.group(2))
            elif "--- prologue ---" in line:
                section = prologue
            elif "--- loop body" in line:
                section = body
            continue
        if section is None:
            raise CheckError(f"instruction outside a section: {line!r}")
        if match := _LDAR.match(text):
            register, array, coefficient, offset, constant = match.groups()
            if constant is not None:
                instruction = ("ldar", int(register), array, 0,
                               int(constant))
            else:
                instruction = ("ldar", int(register), array,
                               int(coefficient or 1), int(offset or 0))
        elif match := _MODIFY.match(text):
            mnemonic, register, amount = match.groups()
            sign = 1 if mnemonic == "ADAR" else -1
            instruction = ("mod", int(register), sign * int(amount))
        elif match := _USE.match(text):
            register, sign, amount = match.groups()
            delta = 0 if amount is None else \
                (int(amount) if sign == "+" else -int(amount))
            instruction = ("use", int(register), delta)
        else:
            raise CheckError(f"unknown instruction {text!r}")
        section.append(instruction)
    if header_cost is None:
        raise CheckError("listing has no cost header")
    return header_cost, prologue, body


def check_listing(listing: str, kernel: GenKernel) -> int:
    """Interpret ``listing`` over the first loop iterations of
    ``kernel``; returns the unit-cost instructions per iteration,
    recounted from the loop body."""
    header_cost, prologue, body = _parse(listing)
    registers: dict[int, tuple[str, int]] = {}

    def execute(instruction, i: int, position: int) -> int:
        kind, register = instruction[0], instruction[1]
        if register >= kernel.registers:
            raise CheckError(f"AR{register} beyond the AGU's "
                             f"{kernel.registers} registers")
        if kind == "ldar":
            _, _, array, coefficient, offset = instruction
            registers[register] = (array, coefficient * i + offset)
            return position
        if register not in registers:
            raise CheckError(f"AR{register} used before it was loaded")
        array, element = registers[register]
        if kind == "mod":
            registers[register] = (array, element + instruction[2])
            return position
        delta = instruction[2]
        if abs(delta) > kernel.modify_range:
            raise CheckError(f"post-modify {delta} exceeds the modify "
                             f"range {kernel.modify_range}")
        if position >= len(kernel.accesses):
            raise CheckError("more USE operands than accesses")
        want_array, coefficient, offset = kernel.accesses[position]
        want = (want_array, coefficient * i + offset)
        if (array, element) != want:
            raise CheckError(f"access {position} at i={i} addressed "
                             f"{array}[{element}], expected "
                             f"{want[0]}[{want[1]}]")
        registers[register] = (array, element + delta)
        return position + 1

    for instruction in prologue:
        execute(instruction, kernel.start, 0)
    for iteration in range(min(kernel.n_iterations, CHECK_ITERATIONS)):
        i = kernel.start + iteration * kernel.step
        position = 0
        for instruction in body:
            position = execute(instruction, i, position)
        if position != len(kernel.accesses):
            raise CheckError(f"iteration {iteration} used {position} of "
                             f"{len(kernel.accesses)} accesses")
    cost = sum(1 for instruction in body if instruction[0] != "use")
    if cost != header_cost:
        raise CheckError(f"header claims {header_cost} unit-cost "
                         f"instructions, the body has {cost}")
    return cost


def check_result(result, kernel: GenKernel, cost: int) -> None:
    """A compile result's summary against the recounted listing cost."""
    if result.n_accesses != len(kernel.accesses):
        raise CheckError(f"{kernel.name}: {result.n_accesses} accesses, "
                         f"expected {len(kernel.accesses)}")
    if not (result.overhead_per_iteration == result.total_cost == cost):
        raise CheckError(f"{kernel.name}: overhead "
                         f"{result.overhead_per_iteration}, model "
                         f"{result.total_cost}, listing {cost}")
    if result.n_registers_used > kernel.registers:
        raise CheckError(f"{kernel.name}: uses {result.n_registers_used} "
                         f"of {kernel.registers} registers")
    if not (result.simulated and result.audit_ok):
        raise CheckError(f"{kernel.name}: not simulated or audit failed")


# ----------------------------------------------------------------------
# EXP-S1
# ----------------------------------------------------------------------
#: The paper reports an average reduction of about 40 %.
REDUCTION_BAND = (30.0, 50.0)


def _transition_cost(source, target, distance_shift: int,
                     modify_range: int) -> int:
    if (source.array, source.coefficient) != \
            (target.array, target.coefficient):
        return 1
    distance = target.offset + distance_shift - source.offset
    return 0 if abs(distance) <= modify_range else 1


def _path_cost(indices, pattern, modify_range: int) -> int:
    """Steady-state cost of one register's path, from the offsets."""
    cost = sum(_transition_cost(pattern[a], pattern[b], 0, modify_range)
               for a, b in zip(indices, indices[1:]))
    first, last = pattern[indices[0]], pattern[indices[-1]]
    return cost + _transition_cost(
        last, first, first.coefficient * pattern.step, modify_range)


def _check_partition(cover, n: int, limit: int | None) -> None:
    seen = sorted(index for path in cover for index in path.indices)
    if seen != list(range(n)):
        raise CheckError(f"cover does not partition {n} accesses")
    if limit is not None and cover.n_paths > limit:
        raise CheckError(f"cover has {cover.n_paths} paths, K={limit}")


def check_s1_grid(config, summary) -> tuple[float, int]:
    """Recompose every grid point of ``summary`` (an EXP-S1 run of
    ``config``) from public calls; returns the average reduction and
    the summed per-iteration cost of every optimized allocation."""
    from repro.agu.model import AguSpec
    from repro.analysis.experiments import statistical_grid_jobs
    from repro.batch.jobs import naive_baseline_seed
    from repro.core.allocator import AddressRegisterAllocator
    from repro.core.config import AllocatorConfig
    from repro.merging.greedy import best_pair_merge
    from repro.merging.naive import naive_merge
    from repro.workloads.random_patterns import (
        RandomPatternConfig,
        generate_batch,
    )

    jobs = statistical_grid_jobs(config)
    if len(jobs) != len(summary.rows):
        raise CheckError(f"{len(summary.rows)} rows for {len(jobs)} points")
    reductions = []
    total_cost = 0
    for job, row in zip(jobs, summary.rows):
        allocator = AddressRegisterAllocator(
            AguSpec(job.k, job.m),
            AllocatorConfig(cost_model=job.cost_model,
                            exact_cover_limit=job.exact_cover_limit,
                            cover_node_budget=job.cover_node_budget))
        patterns = generate_batch(
            RandomPatternConfig(job.n, offset_span=job.offset_span,
                                distribution=job.distribution),
            job.patterns_per_config, seed=job.pattern_seed)
        optimized, naive, k_tildes = [], [], []
        constrained = 0
        for index, pattern in enumerate(patterns):
            cover, k_tilde, feasible, _ = allocator.initial_cover(pattern)
            if not feasible or k_tilde != cover.n_paths:
                raise CheckError(f"{job.name}: phase 1 infeasible")
            _check_partition(cover, len(pattern), None)
            for path in cover:
                if _path_cost(path.indices, pattern, job.m):
                    raise CheckError(f"{job.name}: phase-1 path "
                                     f"{path.indices} is not zero-cost")
            k_tildes.append(k_tilde)
            if cover.n_paths <= job.k:
                optimized.append(0.0)
                naive.append(0.0)
                continue
            constrained += 1
            merged = best_pair_merge(cover, job.k, pattern, job.m,
                                     job.cost_model)
            _check_partition(merged.cover, len(pattern), job.k)
            cost = sum(_path_cost(path.indices, pattern, job.m)
                       for path in merged.cover)
            if cost != merged.total_cost:
                raise CheckError(f"{job.name}: reported cost "
                                 f"{merged.total_cost}, recomputed {cost}")
            optimized.append(float(cost))
            total_cost += cost
            draws = []
            for repeat in range(job.naive_repeats):
                baseline = naive_merge(
                    cover, job.k, pattern, job.m, job.cost_model,
                    strategy="random",
                    seed=naive_baseline_seed(job.naive_seed, index, repeat))
                _check_partition(baseline.cover, len(pattern), job.k)
                draws.append(sum(_path_cost(path.indices, pattern, job.m)
                                 for path in baseline.cover))
            naive.append(sum(draws) / len(draws))
        count = len(patterns)
        mean_optimized = sum(optimized) / count
        mean_naive = sum(naive) / count
        reduction = 0.0 if mean_naive == 0 else \
            100.0 * (1.0 - mean_optimized / mean_naive)
        expected = (job.n, job.m, job.k, count, sum(k_tildes) / count,
                    constrained / count, mean_optimized, mean_naive)
        got = (row.n, row.m, row.k, row.n_patterns, row.mean_k_tilde,
               row.constrained_fraction, row.mean_optimized, row.mean_naive)
        if got != expected or abs(row.reduction_pct - reduction) > 1e-9:
            raise CheckError(f"{job.name}: row {got} != recomputed "
                             f"{expected}")
        if mean_naive > 0:
            reductions.append(reduction)
    average = mean(reductions)
    if abs(average - summary.average_reduction_pct) > 1e-9:
        raise CheckError(f"average reduction {summary.average_reduction_pct}"
                         f" != recomputed {average}")
    low, high = REDUCTION_BAND
    if not low <= average <= high:
        raise CheckError(f"average reduction {average:.1f} % outside the "
                         f"paper's band {low}-{high} %")
    return average, total_cost

"""Hypothesis-driven churn fuzz of the serving layer.

Random schedules of concurrent reads and appends run against an
:class:`~repro.serving.shard.IndexShard` (real pump, real coalescing, real
snapshot pins); every response frame is then re-derived *byte for byte* from
:class:`~repro.baselines.NaiveIndexedSequence` prefixes.  A read answered at
``version v`` must equal the naive oracle over the first ``v`` rows of the
final log -- including every typed error message -- for some ``v`` within
the window the phase allows (concurrent appends make the exact pin a
scheduling choice; the window is the linearization freedom).

Every test runs under each available kernel backend, mirroring
``tests/core/test_delete_churn.py``, so the numpy batch kernels and the pure
python walks certify each other through the whole serving stack.
"""

import asyncio
import contextlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import NaiveIndexedSequence
from repro.bits import kernel
from repro.core.interface import check_select_index, check_select_prefix_index
from repro.db.column import CompressedColumn
from repro.exceptions import OutOfBoundsError, ValueNotFoundError
from repro.serving import (
    IndexShard,
    Request,
    encode_error,
    encode_result,
    error_code_for_exception,
    error_message,
)

BACKENDS = kernel.available_backends()

UNIVERSE = ["app/li", "app/lo", "app/le", "app/x", "apricot", "b", ""]
PROBES = ["app/", "app/l", "ap", "b", "zzz", ""]


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


@st.composite
def request_specs(draw):
    op = draw(
        st.sampled_from(
            ["access", "rank", "select", "rank_prefix", "select_prefix", "append"]
        )
    )
    return {
        "op": op,
        "value": draw(st.sampled_from(UNIVERSE + ["missing-value"])),
        "prefix": draw(st.sampled_from(PROBES + ["zz-missing"])),
        "pos": draw(st.integers(min_value=-2, max_value=48)),
        "idx": draw(st.integers(min_value=-2, max_value=14)),
    }


SCHEDULES = st.lists(
    st.lists(request_specs(), min_size=1, max_size=6), min_size=1, max_size=5
)
INITIAL = st.lists(st.sampled_from(UNIVERSE), min_size=0, max_size=16)


def build_request(slot, spec) -> Request:
    args = {
        "access": {"pos": spec["pos"]},
        "rank": {"value": spec["value"], "pos": spec["pos"]},
        "select": {"value": spec["value"], "idx": spec["idx"]},
        "rank_prefix": {"prefix": spec["prefix"], "pos": spec["pos"]},
        "select_prefix": {"prefix": spec["prefix"], "idx": spec["idx"]},
        "append": {"value": spec["value"]},
    }[spec["op"]]
    return Request(op=spec["op"], id=slot, args=args)


def expected_frame(request: Request, version: int, naive) -> bytes:
    """The oracle frame for ``request`` answered at pinned ``version``."""
    args = request.args
    try:
        if request.op == "access":
            pos = args["pos"]
            if not 0 <= pos < version:
                raise OutOfBoundsError(
                    f"position {pos} out of range for length {version}"
                )
            result = naive.access(pos)
        elif request.op == "rank":
            pos = args["pos"]
            if not 0 <= pos <= version:
                raise OutOfBoundsError(
                    f"rank position {pos} out of range for length {version}"
                )
            result = naive.rank(args["value"], pos)
        elif request.op == "select":
            total = naive.rank(args["value"], version)
            if total == 0:
                raise ValueNotFoundError(
                    f"value {args['value']!r} does not occur in the sequence"
                )
            check_select_index(args["value"], args["idx"], total)
            result = naive.select(args["value"], args["idx"])
        elif request.op == "rank_prefix":
            pos = args["pos"]
            if not 0 <= pos <= version:
                raise OutOfBoundsError(
                    f"rank position {pos} out of range for length {version}"
                )
            result = naive.rank_prefix(args["prefix"], pos)
        else:
            assert request.op == "select_prefix"
            matches = naive.rank_prefix(args["prefix"], version)
            if matches == 0:
                raise ValueNotFoundError(
                    f"no element has prefix {args['prefix']!r}"
                )
            check_select_prefix_index(args["prefix"], args["idx"], matches)
            result = naive.select_prefix(args["prefix"], args["idx"])
    except (OutOfBoundsError, ValueNotFoundError) as error:
        return encode_error(
            request.id, error_code_for_exception(error), error_message(error)
        )
    return encode_result(request.id, result, version)


async def run_schedule(initial, schedule):
    """Execute the schedule; return per-phase observations + the final log."""
    column = CompressedColumn("fuzz", initial, tiered=True)
    shard = IndexShard("fuzz", column, compact_budget=2)
    observations = []
    for phase in schedule:
        low = len(column)
        requests = [build_request(slot, spec) for slot, spec in enumerate(phase)]
        frames = await asyncio.gather(
            *[shard.submit(request) for request in requests]
        )
        observations.append((low, len(column), requests, frames))
    await shard.drain()
    return observations, list(column.values())


def check_run(initial, schedule):
    observations, final_log = asyncio.run(run_schedule(initial, schedule))
    appended = sum(
        1 for phase in schedule for spec in phase if spec["op"] == "append"
    )
    assert len(final_log) == len(initial) + appended

    oracles = {}

    def oracle(version):
        if version not in oracles:
            oracles[version] = NaiveIndexedSequence(final_log[:version])
        return oracles[version]

    import json

    for low, high, requests, frames in observations:
        for request, frame in zip(requests, frames):
            if request.op == "append":
                payload = json.loads(frame)
                assert payload["ok"] and payload["result"] == {"appended": 1}
                assert low < payload["version"] <= high
                # The row it reports exists at its version in the log.
                assert final_log[payload["version"] - 1] == request.args["value"]
                continue
            candidates = {
                expected_frame(request, version, oracle(version))
                for version in range(low, high + 1)
            }
            assert frame in candidates, (request, frame, sorted(candidates))


class TestServingChurn:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(initial=INITIAL, schedule=SCHEDULES)
    def test_every_response_matches_a_naive_prefix_oracle(
        self, backend, initial, schedule
    ):
        with active_backend(backend):
            check_run(initial, schedule)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deterministic_mixed_regression(self, backend):
        schedule = [
            [
                {"op": "append", "value": "app/li", "prefix": "", "pos": 0, "idx": 0},
                {"op": "rank", "value": "app/li", "prefix": "", "pos": 3, "idx": 0},
                {"op": "access", "value": "", "prefix": "", "pos": 9, "idx": 0},
            ],
            [
                {"op": "select", "value": "app/li", "prefix": "", "pos": 0, "idx": 0},
                {"op": "select_prefix", "value": "", "prefix": "app/", "pos": 0, "idx": 1},
                {"op": "append", "value": "b", "prefix": "", "pos": 0, "idx": 0},
                {"op": "rank_prefix", "value": "", "prefix": "app/", "pos": 4, "idx": 0},
            ],
            [
                {"op": "select_prefix", "value": "", "prefix": "zzz", "pos": 0, "idx": 0},
                {"op": "select", "value": "apricot", "prefix": "", "pos": 0, "idx": -1},
            ],
        ]
        with active_backend(backend):
            check_run(["app/li", "app/lo", "b", ""], schedule)

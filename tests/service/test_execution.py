"""Job-body validation and content-key identity.

The job key is the dedup contract: it must be deterministic, depend
only on design structure + normalized parameters, and collide for a
registry workload vs. the same kernel submitted as source text.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.execution import (
    JOB_KINDS,
    execute_job,
    job_key,
    parse_microarchs,
    pipeline_fingerprint,
    prepare_job,
)
from repro.service.jobs import JobError
from repro.workloads import PIPELINE_REGISTRY, WORKLOAD_REGISTRY

FIR_SOURCE = '''\
def fir(x: int, k: int) -> int:
    acc = 0
    for i in range(4):
        acc = acc + x * k
    return acc
'''


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
BAD_BODIES = [
    ("nope", {"workload": "fir"}, "unknown job kind"),
    ("schedule", {"workload": "nope"}, "unknown workload"),
    ("schedule", {}, "exactly one of"),
    ("schedule", {"workload": "fir", "source": "x"}, "exactly one of"),
    ("schedule", {"workload": "fir", "library": "tsmc"},
     "unknown library"),
    ("sweep", {"workload": "fir", "latencies": "3,x"},
     "bad microarch"),
    ("sweep", {"workload": "fir", "clocks_ps": "fast"}, "bad clocks"),
    ("sweep", {"workload": "fir", "clocks_ps": []}, "empty clock"),
    ("tune", {"workload": "fir", "strategy": "magic"},
     "unknown strategy"),
    ("tune", {"workload": "fir", "objective": "speed"},
     "unknown objective"),
    ("stream", {"pipeline": "nope"}, "unknown pipeline"),
    ("schedule", {"source": "def f(:"}, "frontend error"),
]


@pytest.mark.parametrize("kind,params,fragment", BAD_BODIES,
                         ids=[c[2] for c in BAD_BODIES])
def test_bad_bodies_raise_job_error(kind, params, fragment):
    with pytest.raises(JobError, match=fragment):
        prepare_job(kind, params)[0]


#: malformed and out-of-range numbers: (kind, params, reason slug)
BAD_NUMBERS = [
    ("schedule", {"clock_ps": "fast"}, "bad-clock"),
    ("schedule", {"clock_ps": 0}, "bad-clock"),
    ("schedule", {"ii": 0}, "bad-microarch"),
    ("schedule", {"ii": "two"}, "bad-microarch"),
    ("stream", {"clock_ps": float("inf")}, "bad-clock"),
    ("sweep", {"latencies": "3:0"}, "bad-microarch"),
    ("sweep", {"latencies": "0"}, "bad-microarch"),
    ("sweep", {"clocks_ps": [1600, float("nan")]}, "bad-clock"),
    ("sweep", {"clocks_ps": "-1600"}, "bad-clock"),
    ("tune", {"delay_ps": "soon"}, "invalid-goal"),
    ("tune", {"max_area": float("inf")}, "invalid-goal"),
]


@pytest.mark.parametrize("kind,params,reason", BAD_NUMBERS,
                         ids=[f"{kind}-{field}={value}"
                              for kind, params, _ in BAD_NUMBERS
                              for field, value in params.items()])
def test_bad_numbers_raise_job_error_with_reason(kind, params, reason):
    design = {"pipeline": "matmul_relu_stream"} if kind == "stream" \
        else {"workload": "fir"}
    with pytest.raises(JobError) as err:
        prepare_job(kind, dict(design, **params))
    assert err.value.reason == reason


def test_normalize_fills_defaults_deterministically():
    a = prepare_job("tune", {"workload": "fir"})[0]
    b = prepare_job("tune", {"workload": "fir",
                             "library": "artisan90",
                             "strategy": "greedy"})[0]
    assert a == b  # spelled-out defaults normalize identically
    assert a["objective"] == "delay"  # no delay budget -> chase speed
    with_budget = prepare_job("tune", {"workload": "fir",
                                       "delay_ps": 9000})[0]
    assert with_budget["objective"] == "area"


def test_parse_microarchs_defaults_to_paper_set():
    micros = parse_microarchs(None)
    assert [(m.latency, m.ii) for m in micros] == \
        [(8, None), (16, None), (32, None), (16, 8), (32, 16)]
    lat3, pipelined = parse_microarchs("3,4:2")
    assert (lat3.latency, lat3.ii) == (3, None)
    assert (pipelined.latency, pipelined.ii) == (4, 2)


# ----------------------------------------------------------------------
# key identity
# ----------------------------------------------------------------------
REFORMATTED_FIR_SOURCE = '''\
# same kernel, different spelling: comments + blank lines only

def fir(x: int, k: int) -> int:
    acc = 0

    for i in range(4):
        # multiply-accumulate
        acc = acc + x * k
    return acc
'''


def test_job_key_is_structural_not_textual():
    """The service's dedup promise: identity is design *structure*."""
    original = prepare_job("schedule", {"source": FIR_SOURCE})[0]
    reformatted = prepare_job(
        "schedule", {"source": REFORMATTED_FIR_SOURCE})[0]
    assert original["source"] != reformatted["source"]
    assert job_key("schedule", original) == \
        job_key("schedule", reformatted)


def test_job_key_separates_kinds_and_parameters():
    base = prepare_job("schedule", {"workload": "fir"})[0]
    sweep = prepare_job("sweep", {"workload": "fir"})[0]
    other_clock = prepare_job("schedule", {"workload": "fir",
                                           "clock_ps": 2100})[0]
    other_design = prepare_job("schedule", {"workload": "adpcm"})[0]
    keys = {job_key("schedule", base), job_key("sweep", sweep),
            job_key("schedule", other_clock),
            job_key("schedule", other_design)}
    assert len(keys) == 4


@given(st.sampled_from(["fir", "adpcm", "fft8"]),
       st.sampled_from(JOB_KINDS[:3]),
       st.sampled_from([1250.0, 1600.0, 2100.0]))
def test_job_key_is_deterministic(workload, kind, clock):
    params = {"workload": workload}
    if kind == "schedule":
        params["clock_ps"] = clock
    else:
        params["clocks_ps"] = [clock]
    normalized = prepare_job(kind, params)[0]
    assert job_key(kind, normalized) == \
        job_key(kind, prepare_job(kind, params)[0])


# ----------------------------------------------------------------------
# execution results are deterministic payloads
# ----------------------------------------------------------------------
def test_execute_schedule_twice_is_bit_identical():
    params = prepare_job("schedule", {"workload": "fir"})[0]
    ok1, result1, _ = execute_job("schedule", params)
    ok2, result2, _ = execute_job("schedule", params)
    assert ok1 and ok2
    assert result1 == result2  # no wall times, no cache counters
    assert "power_mw" in result1


def test_execute_infeasible_schedule_reports_diagnostics():
    params = prepare_job("schedule", {"workload": "fft8",
                                      "clock_ps": 400, "ii": 1})[0]
    ok, result, _ = execute_job("schedule", params)
    assert not ok
    assert result["diagnostics"]


# ----------------------------------------------------------------------
# key stability: one design build per submit, byte-identical keys
# ----------------------------------------------------------------------
#: job keys of default ``schedule`` jobs (``stream`` for pipelines).
#: Deployed dedup indexes hold these bytes, so how a key is computed
#: may change but its value may not; only a TIMING_MODEL_VERSION bump
#: may move them.
PINNED_KEYS = {
    "adpcm":
        "4ae7fa876c55607911d915056e1d44b6e5f4e586d5f128ab6d8beccb56472ecb",
    "conv3x3":
        "0c9920d5dd697201b1e43351779dd54196b5a73b4344aac8209deadcdf25a0bd",
    "conv3x3_mem":
        "28ea5881ea4797be75f2afa6b5b6e18a72d2592f59224135d1062b10ac43c889",
    "example1":
        "77a7915708263f71e9bf9cdbc9da9c2147941ad252888a9bedfcc28dcb859c05",
    "fft8":
        "66b43fd76004056a0c9e76d9da04dbe5e7251c89f90604504bc582120bc8712d",
    "fft_stage":
        "cfcf6cd07ef4dc83cac101b605e40a4ef518628e85a5d11f0c40657163fa605c",
    "fir":
        "e732e229788df7ea2eb1d66a21f81149f205c06a9e0f280ab4f5aa60b0663ed3",
    "idct":
        "c2231d909637852bded0941a311163bb0422549b553a5a58f354c42418f369e8",
    "idct2d":
        "d415fa6f4e2ffc3517c6cfbe4ee82d8e0080210ad4bd4e8f78f1579e8e5f7df2",
    "idct8":
        "c2231d909637852bded0941a311163bb0422549b553a5a58f354c42418f369e8",
    "jpeg_dct":
        "32fd5c1fa447e8e9f0fc6bf0f209677ae950bb960214e64aabdfa18317d4aa8e",
    "matmul":
        "d2955d194484a8a1b9f435a76ab8e7c8b5d6e6b6451223bb2fa9607c65675438",
    "matmul_mem":
        "d9f94ff2799fead9e9dfb706ff675e4998d82866f5cc8f654027fae4708954dc",
    "mips":
        "5e3de2120d2a1763d1fafeda7927da362df687ae66ef3572ef623fda5d9e0255",
    "sobel":
        "cedf8763ebbecbfabe12cadecdd64d32a7413055e0d31ba81e09f207f7bdadc1",
    "sobel_mem":
        "16c4485da8ab4879bb0e6a74484cfc1a478a302aea6d47274a3e4586b1593a3d",
    "synthetic":
        "e1cb04a4fa2a04c37477a4bb1817761bf6cb05c229c18f996e31dbd141fe986b",
    "fir_decimate_stream":
        "9984285fa20c08253b7e349ca5d29f83e202208246611c4b578ae7bfbcd6f3b7",
    "matmul_relu_stream":
        "9652eb3139e3ab1ca81d7bfca53e6bd7bc07fbbd65fd1875c56531521b1ebfe3",
    "sobel_threshold_stream":
        "b5cb236f02a1c7652520bcb3876b2ad01a20d1578ce1beafc07e1588fa865773",
}

PINNED_SOURCE = "def fir(x: int, y: int) -> int:\n    return x * 3 + y\n"
PINNED_SOURCE_SWEEP_KEY = \
    "8352eefb9e0ed08d4676a2a7edd3627d0f7ad727da3d0b72dceb96efaf94ced9"


def test_job_keys_are_pinned_for_every_registry_design():
    assert sorted(PINNED_KEYS) == sorted(
        list(WORKLOAD_REGISTRY) + list(PIPELINE_REGISTRY))
    for name, expected in PINNED_KEYS.items():
        kind = "stream" if name in PIPELINE_REGISTRY else "schedule"
        spec = {"pipeline" if kind == "stream" else "workload": name}
        normalized, key = prepare_job(kind, spec)
        assert key == expected, name
        assert job_key(kind, prepare_job(kind, spec)[0]) == expected
        assert normalized == prepare_job(kind, spec)[0]


def test_pipeline_fingerprint_deterministic_and_structural():
    build = PIPELINE_REGISTRY["matmul_relu_stream"]
    a = pipeline_fingerprint(build())
    assert a == pipeline_fingerprint(build())
    other = build()
    other.set_depth(sorted(other.channels)[0], 7)
    assert pipeline_fingerprint(other) != a


def test_job_key_is_pinned_for_a_source_submission():
    spec = {"source": PINNED_SOURCE, "clocks_ps": "1600,2400",
            "latencies": "3,4"}
    assert prepare_job("sweep", spec)[1] == PINNED_SOURCE_SWEEP_KEY
    assert job_key("sweep", prepare_job("sweep", spec)[0]) == \
        PINNED_SOURCE_SWEEP_KEY


def test_prepare_job_builds_the_design_once(monkeypatch):
    import repro.service.execution as exe

    builds = []
    build_fir = WORKLOAD_REGISTRY["fir"]
    compile_source = exe.compile_source

    def counted_fir():
        builds.append("fir")
        return build_fir()

    def counted_compile(*args, **kwargs):
        builds.append("source")
        return compile_source(*args, **kwargs)

    monkeypatch.setitem(exe.WORKLOAD_REGISTRY, "fir", counted_fir)
    monkeypatch.setattr(exe, "compile_source", counted_compile)
    prepare_job("schedule", {"workload": "fir"})
    prepare_job("schedule", {"source": PINNED_SOURCE})
    assert builds == ["fir", "source"]

"""Benchmark workloads: seeded config generation and per-op output checks.

Each workload is one qlesim scenario at a fixed size.  ``make_configs`` draws a
small pool of config documents from the workload seed (the same seed always
gives the same documents); ``check_op`` verifies the files one op wrote and
returns the list of problems found (empty when the op is correct).
"""

import collections
import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

POOL_SIZE = 4          # configs per run; ops cycle through them
FIELD_REF_G = 3700.0   # nuclear T1 anchor, written into every config
T1_REF_S = 3.44e-3
T_QLR_S = 3.0e-6


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    flags: tuple        # extra CLI flags after ``run <config>``


# why each workload was chosen is recorded in BENCHMARK.json and baseline.json
WORKLOADS = {
    "threetone": Workload("threetone", "correlation_threetone", ()),
    "readout_train": Workload("readout_train", "qle_snr_vs_n", ()),
    "t1_sweep": Workload("t1_sweep", "nuclear_t1_field_sweep",
                         ("--threads", "2", "--format", "json")),
}


# ------------------------------------------------------------ config generation

def _threetone(rng):
    # centre and spacings keep the tones inside the XY8:6 pass band and at
    # least 3 spectral bins (1/1.5 ms = 667 Hz) apart; phases stay near pi/2
    # so the first window stores a nonzero correlation amplitude
    centre = 1.0e6 + rng.uniform(-3.0e3, 3.0e3)
    freqs = (centre - rng.uniform(2.0e3, 3.0e3), centre, centre + rng.uniform(2.0e3, 3.0e3))
    tones = [{"amplitude": 0.15e-6, "frequency": f,
              "phase": math.pi / 2 + rng.uniform(-0.4, 0.4)} for f in freqs]
    return {"signal": {"tones": tones},
            "options": {"repetitions": 6, "tau": 0.5e-6, "t_corr_max": 1.5e-3,
                        "n_points": 3072, "n_readouts": 500}}


def _readout_train(rng):
    return {"sensor": {"bias_field": rng.uniform(2500.0, 3700.0), "t_qlr": T_QLR_S},
            "options": {"n_readouts": 20000, "amplitude_scale": 1.0}}


def _t1_sweep(rng):
    fields = sorted(rng.uniform(500.0, 3700.0) for _ in range(48))
    return {"options": {"fields": fields}}


_MAKERS = {"threetone": _threetone, "readout_train": _readout_train,
           "t1_sweep": _t1_sweep}


def make_configs(workload: str, seed: int) -> list:
    """Config documents for one run, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    docs = []
    for _ in range(POOL_SIZE):
        doc = {"scenario": WORKLOADS[workload].scenario,
               "seed": rng.randrange(2 ** 31),
               "nuclear_t1": {"t1_ref": T1_REF_S, "field_ref": FIELD_REF_G,
                              "field_exponent": 2.0}}
        doc.update(_MAKERS[workload](rng))
        docs.append(doc)
    return docs


def write_configs(docs: list, directory: Path) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = directory / f"config{i}.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        paths.append(path)
    return paths


# ------------------------------------------------------------------- checks
#
# The checks run in the process whose ru_maxrss is the peak_rss_mb metric, so
# they stream every file and keep only what they need: their own peak stays
# below the program's.

def _sha256(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def _csv_rows(path: Path):
    """The rows of a CSV file, one at a time, the header first."""
    with open(path, newline="", encoding="utf-8") as handle:
        yield from csv.reader(handle)


def _nonfinite_csv(path: Path) -> int:
    rows = _csv_rows(path)
    next(rows)
    bad = 0
    for row in rows:
        for cell in row:
            try:
                bad += not math.isfinite(float(cell))
            except ValueError:   # label columns such as "qle"
                pass
    return bad


def _nonfinite_json(obj) -> int:
    if isinstance(obj, dict):
        return sum(_nonfinite_json(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_nonfinite_json(v) for v in obj)
    if isinstance(obj, float):
        return not math.isfinite(obj)
    return 0


def _check_threetone(doc, out_dir, manifest):
    rows = _csv_rows(out_dir / "correlation_spectrum.csv")
    header = next(rows)
    col = {name: i for i, name in enumerate(header)}
    qle = [(float(r[col["frequency_hz"]]), float(r[col["power"]]))
           for r in rows if r[col["readout"]] == "qle"]
    freq, power = np.array(qle).T
    df = freq[1] - freq[0]
    inner = np.arange(1, len(power) - 1)
    is_peak = (power[inner] >= power[inner - 1]) & (power[inner] > power[inner + 1])
    peaks = inner[is_peak]
    strongest = peaks[np.argsort(-power[peaks], kind="stable")[:3]]
    tones = sorted(t["frequency"] for t in doc["signal"]["tones"])
    found = sorted(float(f) for f in freq[strongest])
    if len(found) != 3 or any(abs(f - t) > df for f, t in zip(found, tones)):
        return [f"QLE peaks {found} not within one bin ({df:.1f} Hz) of tones {tones}"]
    return []


def enhancement_oracle(doc) -> float:
    """sqrt(sum_{n=1..N} exp(-2 n t_qlr / T1)) by direct summation."""
    t1_model = doc["nuclear_t1"]
    t1 = t1_model["t1_ref"] * (doc["sensor"]["bias_field"] / t1_model["field_ref"]) \
        ** t1_model["field_exponent"]
    decay = 2.0 * doc["sensor"]["t_qlr"] / t1
    n_max = doc["options"]["n_readouts"]
    return math.sqrt(math.fsum(math.exp(-n * decay) for n in range(1, n_max + 1)))


def _check_readout_train(doc, out_dir, manifest):
    oracle = enhancement_oracle(doc)
    rows = _csv_rows(out_dir / "qle_snr_vs_n.csv")
    header = next(rows)
    last = collections.deque(rows, maxlen=1)[0]
    values = {"manifest": manifest["extras"]["enhancement_final"],
              "table": float(last[header.index("enhancement")])}
    return [f"{where} enhancement {value!r} differs from oracle {oracle!r}"
            for where, value in values.items()
            if not abs(value - oracle) <= 1e-9 * oracle]


def _check_t1_sweep(doc, out_dir, manifest):
    law = json.loads((out_dir / "nuclear_t1_field_power_law.json").read_text())
    configured = doc["nuclear_t1"]["field_exponent"]
    if not abs(law["field_exponent"] - configured) <= 0.15:
        return [f"field exponent {law['field_exponent']!r} not within 0.15 of {configured}"]
    return []


_CHECKS = {"threetone": _check_threetone, "readout_train": _check_readout_train,
           "t1_sweep": _check_t1_sweep}


def check_op(workload: str, doc: dict, out_dir: Path, exit_code: int) -> list:
    """Problems with one op's outputs; an empty list means the op is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    manifest_path = out_dir / f"{doc['scenario']}_manifest.json"
    if not manifest_path.is_file():
        return ["no manifest"]
    manifest = json.loads(manifest_path.read_text())
    problems = []
    for entry in manifest["files"]:
        path = out_dir / entry["name"]
        if not path.is_file():
            problems.append(f"{entry['name']}: listed but missing")
            continue
        if _sha256(path) != entry["sha256"] or path.stat().st_size != entry["bytes"]:
            problems.append(f"{entry['name']}: sha256 or size differs from the manifest")
        if path.suffix == ".csv":
            bad = _nonfinite_csv(path)
        else:
            bad = _nonfinite_json(json.loads(path.read_text()))
        if bad:
            problems.append(f"{entry['name']}: {bad} non-finite value(s)")
    if problems:
        return problems
    return _CHECKS[workload](doc, out_dir, manifest)


def output_bytes(doc: dict, out_dir: Path) -> dict:
    """Bytes of every file an op wrote, manifest wall time excluded, for the
    byte-identity check between two runs of the same config."""
    manifest_name = f"{doc['scenario']}_manifest.json"
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
             if p.name != manifest_name}
    manifest = json.loads((out_dir / manifest_name).read_text())
    manifest.pop("wall_clock_s")
    files[manifest_name] = json.dumps(manifest, sort_keys=True).encode()
    return files

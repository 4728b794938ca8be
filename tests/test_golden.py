"""Golden-output guard: every scenario's output pinned at a fixed seed.

Each scenario runs at its default options, with only the size options
shrunk so that every reference file stays small, and its tables, JSON
outputs and manifest extras are compared with the references under
``tests/golden/<scenario>/``.  The tolerances admit last-bit drift from a
change in floating-point evaluation order and nothing more:

- table columns: |new - ref| <= 1e-12 * max|ref column| (text columns exact);
- fitted parameters: within 1e-3 of their own reported uncertainty;
- uncertainties and residual norms: rtol 1e-3;
- iteration counts are not compared, since the fits may take a different path
  to the same optimum;
- manifest extras follow the rule of the quantity they report.

To regenerate the references after an intended change of output, run from the
repository root

    PYTHONPATH=src python tests/test_golden.py [scenario ...]

which rewrites the named scenarios only, or every scenario when none is
named; then review the diff under ``tests/golden/`` and record the change,
with its measured drift, in CHANGES.md.

At the same sizes and seed, every table written with ``format: json`` must
hold the same columns, rows and values as its CSV twin.
"""

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from qlesim import default_config, run_scenario
from qlesim.runner import SCENARIOS

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 7
TABLE_RTOL = 1e-12      # of the reference column's largest magnitude
FIT_SIGMA_TOL = 1e-3    # of the parameter's reported uncertainty
FIT_RTOL = 1e-3         # uncertainties and residual norms

# size options only; everything else stays at its default
SIZES = {
    "odmr_swap": {"n_freq": 101},
    "nuclear_t1_field_sweep": {},
    "nuclear_t1_laser_sweep": {},
    "qle_snr_vs_n": {"n_readouts": 400},
    "correlation_threetone": {"n_points": 256},
    "sensitivity_vs_duration": {},
    "eta_map": {"n_points": 20, "t_points": 20},
    "density_projection": {},
}

# fit tables: fitted-parameter column -> its uncertainty column
FIT_COLUMNS = {"t1_fit_s": "t1_err_s", "beta_fit": "beta_err"}
SKIPPED_COLUMNS = {"iterations"}

# extras that report a fitted parameter -> (JSON output, path to its uncertainty)
FIT_EXTRAS = {
    "field_exponent_fit": ("nuclear_t1_field_power_law.json", ("field_exponent_err",)),
    "laser_b_fit": ("nuclear_t1_laser_power_function.json", ("uncertainties", 1)),
}
# extras that report a spectrum bin, scaled like the spectrum's power column
SPECTRUM_EXTRAS = {"min_peak_power", "median_noise_power"}


def _run(scenario, out_dir, file_format="csv"):
    config = default_config(scenario, seed=SEED, **SIZES[scenario])
    config.file_format = file_format
    return run_scenario(config, out_dir=out_dir)


def _read_columns(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _as_floats(values):
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def _assert_within(new, ref, tol, what):
    assert abs(new - ref) <= tol, f"{what}: {new!r} vs {ref!r} (|delta| > {tol:.3g})"


def _compare_csv(new_path, ref_path):
    new, ref = _read_columns(new_path), _read_columns(ref_path)
    assert list(new) == list(ref), f"{ref_path.name}: header changed"
    for name, ref_values in ref.items():
        what = f"{ref_path.name}:{name}"
        assert len(new[name]) == len(ref_values), f"{what}: row count changed"
        if name in SKIPPED_COLUMNS:
            continue
        ref_floats = _as_floats(ref_values)
        if ref_floats is None:
            assert new[name] == ref_values, f"{what}: text column changed"
            continue
        if name in FIT_COLUMNS:
            tols = [FIT_SIGMA_TOL * abs(s) for s in _as_floats(ref[FIT_COLUMNS[name]])]
        elif name in FIT_COLUMNS.values():
            tols = [FIT_RTOL * abs(v) for v in ref_floats]
        else:
            tols = [TABLE_RTOL * max(abs(v) for v in ref_floats)] * len(ref_floats)
        for i, (a, b, tol) in enumerate(zip(_as_floats(new[name]), ref_floats, tols)):
            _assert_within(a, b, tol, f"{what}[{i}]")


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _compare_json(new, ref, tolerance, what):
    """Compare two JSON documents leaf by leaf; ``tolerance(path, value)``
    gives the absolute tolerance of a float leaf; other leaves must be equal,
    except iteration counts."""
    new_leaves, ref_leaves = dict(_leaves(new)), dict(_leaves(ref))
    assert set(new_leaves) == set(ref_leaves), f"{what}: keys changed"
    for path, ref_value in ref_leaves.items():
        where = f"{what}:" + ".".join(map(str, path))
        if isinstance(ref_value, float):
            _assert_within(new_leaves[path], ref_value, tolerance(path, ref_value), where)
        elif path[-1] != "iterations":
            assert new_leaves[path] == ref_value, where


def _fit_output_tolerance(doc):
    """Tolerances for the power-law JSON outputs (a fit plus named copies of
    its parameters and uncertainties)."""
    sigmas = doc["fit"]["uncertainties"]
    named = {"field_exponent": 1, "a": 0, "b": 1, "c": 2}

    def tolerance(path, value):
        if path[:2] == ("fit", "params"):
            return FIT_SIGMA_TOL * abs(sigmas[path[2]])
        if path[0] in named:
            return FIT_SIGMA_TOL * abs(sigmas[named[path[0]]])
        if path[0] in ("fit", "uncertainties", "field_exponent_err"):
            return FIT_RTOL * abs(value)
        return 0.0
    return tolerance


def _extras_tolerance(ref_dir):
    def tolerance(path, value):
        if path[0] in FIT_EXTRAS:
            json_name, sigma_path = FIT_EXTRAS[path[0]]
            doc = json.loads((ref_dir / json_name).read_text(encoding="utf-8"))
            return FIT_SIGMA_TOL * abs(_lookup(doc, sigma_path))
        if path[0] in SPECTRUM_EXTRAS:
            power = _as_floats(_read_columns(ref_dir / "correlation_spectrum.csv")["power"])
            return TABLE_RTOL * max(abs(v) for v in power)
        return TABLE_RTOL * abs(value)
    return tolerance


def _jsonable(extras):
    """Manifest extras as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(extras, default=lambda v: v.item()))


@pytest.mark.parametrize("scenario", sorted(SIZES))
def test_scenario_matches_golden_output(scenario, tmp_path):
    ref_dir = GOLDEN_DIR / scenario
    manifest = _run(scenario, tmp_path)
    names = sorted(entry["name"] for entry in manifest.files)
    assert names == sorted(p.name for p in ref_dir.iterdir() if p.name != "extras.json")
    for name in names:
        if name.endswith(".csv"):
            _compare_csv(tmp_path / name, ref_dir / name)
        else:
            ref = json.loads((ref_dir / name).read_text(encoding="utf-8"))
            new = json.loads((tmp_path / name).read_text(encoding="utf-8"))
            _compare_json(new, ref, _fit_output_tolerance(ref), name)
    ref_extras = json.loads((ref_dir / "extras.json").read_text(encoding="utf-8"))
    _compare_json(_jsonable(manifest.extras), ref_extras, _extras_tolerance(ref_dir),
                  "extras")


def _assert_cell_matches(cell, value, what):
    """A JSON table value against its CSV cell: numbers equal after float(),
    ints and text exact, bools as true/false."""
    if isinstance(value, bool):
        assert cell == ("true" if value else "false"), what
    elif isinstance(value, int):
        assert cell == str(value), what
    elif isinstance(value, float):
        assert float(cell) == value, what
    else:
        assert isinstance(value, str) and _as_floats([cell]) is None, f"{what}: not text"
        assert cell == value, what


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_json_tables_match_their_csv_twins(scenario, tmp_path):
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    _run(scenario, csv_dir)
    _run(scenario, json_dir, file_format="json")
    assert {p.stem for p in json_dir.iterdir()} == {p.stem for p in csv_dir.iterdir()}
    tables = sorted(csv_dir.glob("*.csv"))
    assert tables
    for csv_path in tables:
        columns = _read_columns(csv_path)
        doc = json.loads((json_dir / f"{csv_path.stem}.json").read_text(encoding="utf-8"))
        assert doc["columns"] == list(columns), csv_path.name
        for name, cells in columns.items():
            assert len(doc["rows"]) == len(cells), f"{csv_path.name}: row count"
            for i, (cell, row) in enumerate(zip(cells, doc["rows"])):
                _assert_cell_matches(cell, row[name], f"{csv_path.stem}:{name}[{i}]")


def regenerate(scenarios=()):
    """Rewrite the named scenarios' references (all of them if none are
    named) from the current code."""
    unknown = set(scenarios) - set(SIZES)
    if unknown:
        raise SystemExit(f"unknown scenarios: {sorted(unknown)}")
    for scenario in sorted(scenarios or SIZES):
        ref_dir = GOLDEN_DIR / scenario
        shutil.rmtree(ref_dir, ignore_errors=True)
        ref_dir.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = _run(scenario, tmp)
            for entry in manifest.files:
                shutil.copyfile(Path(tmp) / entry["name"], ref_dir / entry["name"])
        with open(ref_dir / "extras.json", "w", encoding="utf-8") as handle:
            json.dump(_jsonable(manifest.extras), handle, indent=2, sort_keys=True)
            handle.write("\n")
        sizes = {p.name: p.stat().st_size for p in ref_dir.iterdir()}
        print(scenario, sizes, file=sys.stderr)


if __name__ == "__main__":
    regenerate(sys.argv[1:])

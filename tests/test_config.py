"""Config parsing: unit suffixes, grids, sections, and provenance digests."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from casigrat import (
    TASKS,
    Config,
    ConfigError,
    parse_grid,
    parse_int_range,
    parse_quantity,
    reference_trench_profile,
)
from casigrat.config import SCHEMA, named
from casigrat.pipeline import _TASK_FNS
from casigrat.planar import NumericalError

README = Path(__file__).resolve().parents[1] / "README.md"

SAMPLE = """\
# trench cell
[pipeline]
task = electrostatic_gradient

[geometry]
period = 400nm
depth = 98nm
wall_angle = 94.6deg

[voltage]
applied = 300mV

[grid]
z = 100:600:25nm

[solver]
table_points = 8
"""


def test_parse_quantity_units():
    # the number and the prefix are read as one decimal literal
    assert parse_quantity("98nm", "length") == 98e-9
    assert parse_quantity("400nm", "length") == 4e-07
    assert parse_quantity("1.5e2nm", "length") == 1.5e-7
    assert parse_quantity("151.7um", "length") == 151.7e-6
    assert parse_quantity("2µm", "length") == 2e-6
    assert parse_quantity("0.3V", "voltage") == 0.3
    assert parse_quantity("300mV", "voltage") == 0.3
    assert parse_quantity("94.6deg", "angle") == 94.6
    assert parse_quantity("2.5", "frequency") == 2.5
    assert parse_quantity("1e-3", "frequency") == 1e-3
    assert parse_quantity(f"{math.pi / 2:.15f}rad", "angle") == pytest.approx(
        90.0, rel=1e-12)


def test_parse_quantity_rejects_garbage():
    for bad in ("fast", "98 nanometers", "nm", "1..2nm", "", "1e1e1",
                "1e400nm"):
        with pytest.raises(ConfigError):
            parse_quantity(bad, "length")
    # a suffix of another dimension, a bare number for a dimensioned
    # quantity, a suffix for a frequency, and a unit outside the SI
    # spellings (MV is not millivolts) are refused with the accepted units
    for text, dimension, units in (
            ("98mV", "length", "a length (m, mm, um, µm, nm, pm)"),
            ("98", "length", "a length (m, mm, um, µm, nm, pm)"),
            ("50nm", "voltage", "a voltage (V, mV, uV)"),
            ("3MV", "voltage", "a voltage (V, mV, uV)"),
            ("3mv", "voltage", "a voltage (V, mV, uV)"),
            ("90", "angle", "an angle (deg, rad)"),
            ("1783Hz", "frequency", "a frequency (bare rad/s)")):
        with pytest.raises(ConfigError) as exc:
            parse_quantity(text, dimension)
        assert str(exc.value) == f"expected {units}, got {text!r}"


def test_parse_quantity_exponent_past_the_int_digit_limit():
    # an exponent too long for int() still over- or underflows like float()
    huge = "1" * 5000
    with pytest.raises(ConfigError, match="non-finite"):
        parse_quantity(f"1e{huge}nm", "length")
    assert parse_quantity(f"1e-{huge}nm", "length") == 0.0
    assert parse_quantity(f"1e+{'0' * 5000}1nm", "length") == 1e-8


def test_parse_grid_range_form():
    z = parse_grid("100:600:25nm", "length")
    assert z.size == 21
    assert z[0] == pytest.approx(100e-9, rel=1e-12)
    assert z[-1] == pytest.approx(600e-9, rel=1e-12)
    assert np.allclose(np.diff(z), 25e-9)


def test_parse_grid_list_and_single():
    z = parse_grid("100nm, 250nm, 600nm", "length")
    assert z.size == 3 and z[1] == pytest.approx(250e-9)
    assert parse_grid("150nm", "length").size == 1
    assert parse_grid("2e14:6e14:2e14", "frequency").tolist() == [
        2e14, 4e14, 6e14]


def test_parse_grid_rejects_bad_forms():
    with pytest.raises(ConfigError, match="divide"):
        parse_grid("100:610:25nm", "length")
    for bad in ("600:100:25nm", "100:600:0nm", "600nm, 100nm", "1:2:3:4nm"):
        with pytest.raises(ConfigError):
            parse_grid(bad, "length")
    for bad in ("100:1e400:25nm", "100:200:1e400nm"):
        with pytest.raises(ConfigError, match="non-finite"):
            parse_grid(bad, "length")
    with pytest.raises(ConfigError, match="start:stop:step"):
        parse_grid("100:abc:25nm", "length")
    for huge in ("0.5:1e300:1e-300m", "1:1e12:1nm"):
        with pytest.raises(ConfigError, match="points, more than"):
            parse_grid(huge, "length")
    for bad in ("200:300:100", "100nm, 200"):  # a bare length
        with pytest.raises(ConfigError, match="expected a length"):
            parse_grid(bad, "length")


def test_parse_int_range():
    assert parse_int_range("4:14:2") == [4, 6, 8, 10, 12, 14]
    assert parse_int_range("3,5,9") == [3, 5, 9]
    assert parse_int_range("7") == [7]
    for bad in ("4:14:0", "14:4:2", "a:b:c", "1.5:3:1"):
        with pytest.raises(ConfigError):
            parse_int_range(bad)


def test_parse_int_range_refuses_oversized_range():
    # one value over the bound: refused before the list is built, and cheap
    # to build were it not
    assert len(parse_int_range("1:100000:1")) == 100_000
    with pytest.raises(ConfigError, match="100001 values, more than 100000"):
        parse_int_range("0:100000:1")


def test_config_typed_access():
    cfg = Config.from_text(SAMPLE)
    assert cfg.task == "electrostatic_gradient"
    assert cfg.quantity("geometry", "period") == pytest.approx(400e-9)
    assert cfg.quantity("geometry", "wall_angle") == 94.6
    assert cfg.quantity("voltage", "applied") == pytest.approx(0.3)
    assert cfg.integer("solver", "table_points") == 8
    z = cfg.grid("grid", "z")
    assert z.size == 21
    flat = Config.from_text("[pipeline]\ntask = flat_force_gradient\n"
                            "[roughness]\nenabled = off\n")
    assert flat.boolean("roughness", "enabled") is False


def test_config_defaults_and_required():
    cfg = Config.from_text(SAMPLE)
    # an absent key reads as its task's default from the schema
    assert cfg.quantity("geometry", "top_width") == \
        reference_trench_profile().top_width
    assert cfg.quantity("voltage", "residual") == 0.0
    assert cfg.quantity("sphere", "radius") == 50e-6
    rho = Config.from_text("[pipeline]\ntask = rho_ratio\n")
    assert rho.string("materials", "plane") == "gold_drude"
    assert rho.grid("grid", "z").size == 6
    # the order sweep runs on [grid] z, so no separate sweep z is read
    with pytest.raises(ConfigError, match=r"^\[solver\] sweep_z: not read by "
                                          "task rho_ratio"):
        Config.from_text("[pipeline]\ntask = rho_ratio\n[solver]\n"
                         "sweep_z = 150nm\n")
    # a key without a default reads as None: TruncationSpec() holds them
    assert rho.integer("solver", "orders") is None
    assert rho.string("measured", "gradient_csv") is None
    # a file without a task holds [geometry] only
    geometry = Config.from_text("[geometry]\ndepth = 90nm\n")
    assert geometry.task is None
    assert geometry.quantity("geometry", "depth") == 90e-9
    with pytest.raises(ConfigError, match="missing required"):
        Config.from_text("[grid]\nz = 150nm\n")


def test_config_bad_values_name_the_key():
    cfg = Config.from_text("[pipeline]\ntask = flat_force_gradient\n"
                           "[sphere]\nradius = fast\n[roughness]\n"
                           "n_points = 1.5\nenabled = maybe\n"
                           "[solver]\ntable_points = 100001\n")
    with pytest.raises(ConfigError, match=r"\[sphere\] radius"):
        cfg.quantity("sphere", "radius")
    with pytest.raises(ConfigError, match="not an integer"):
        cfg.integer("roughness", "n_points")
    with pytest.raises(ConfigError,
                       match=r"\[solver\] table_points: 100001 is more than"):
        cfg.integer("solver", "table_points")
    with pytest.raises(ConfigError, match="not a boolean"):
        cfg.boolean("roughness", "enabled")


def test_accessor_messages_start_with_the_key():
    cfg = Config.from_text("[pipeline]\ntask = electrostatic_gradient\n"
                           "[sphere]\nradius = 0um\n[geometry]\n"
                           "depth = fast\nwall_angle = 90\n"
                           "[voltage]\napplied = 1nm\n"
                           "[grid]\nz = 1:3:1furlong\n"
                           "[solver]\ntable_points = 7\n")
    # the accessors are one method: the schema, not the name, gives the kind
    length = "a length (m, mm, um, µm, nm, pm)"
    for section, key, message in (
            ("geometry", "depth", "cannot parse quantity 'fast'"),
            ("geometry", "wall_angle", "expected an angle (deg, rad), got "
                                       "'90'"),
            ("voltage", "applied", "expected a voltage (V, mV, uV), got "
                                   "'1nm'"),
            ("grid", "z", f"grid '1:3:1furlong': expected {length}, got "
                          "'1furlong'"),
            ("sphere", "radius", "must be > 0, got 0um"),
            ("solver", "table_points", "must be >= 8, got 7")):
        with pytest.raises(ConfigError) as exc:
            cfg.quantity(section, key)
        assert str(exc.value) == f"[{section}] {key}: {message}"
    # a bound holds at its edge: 8 table points are enough
    edge = Config.from_text(SAMPLE)
    assert edge.integer("solver", "table_points") == 8


def test_named_prefixes_the_source():
    with pytest.raises(ConfigError) as exc:
        with named("[solver]"):
            raise ValueError("orders must lie in [0, 100], got 101")
    assert str(exc.value) == "[solver] orders must lie in [0, 100], got 101"
    # a KeyError's bare message, not its quoted repr
    with pytest.raises(ConfigError) as exc:
        with named("[materials] plane:"):
            raise KeyError("unknown material 'golld'")
    assert str(exc.value) == "[materials] plane: unknown material 'golld'"
    with named("--z:"):
        value = parse_grid("2m", "length")
    assert value.tolist() == [2.0]


def test_named_passes_numerical_failures_through():
    failure = NumericalError("quadrature did not converge")
    with pytest.raises(NumericalError) as exc:
        with named("[solver]"):
            raise failure
    assert exc.value is failure


def test_config_rejects_duplicates_and_junk():
    with pytest.raises(ConfigError):
        Config.from_text("[geometry]\ndepth = 1nm\ndepth = 2nm\n")
    with pytest.raises(ConfigError):
        Config.from_text("just some words\n")
    # a section or key outside the task's schema names the nearest one
    for text, message in (
            ("[pipeline]\ntask = rho_ratio\n[soler]\norders = 2\n",
             "[soler]: not read by task rho_ratio; did you mean 'solver'?"),
            ("[pipeline]\ntask = rho_ratio\n[solver]\nrefine = true\n",
             "[solver] refine: not read by task rho_ratio"),
            ("[pipeline]\ntask = flat_force_gradient\n[geometry]\n"
             "depth = 98nm\n",
             "[geometry]: not read by task flat_force_gradient"),
            ("[geometry]\ndepht = 98nm\n",
             "[geometry] depht: not read without the missing required key "
             "[pipeline] task; did you mean 'depth'?"),
            ("[pipeline]\ntask = rho_ration\n",
             "[pipeline] task: unknown pipeline task 'rho_ration'; choose "
             f"from {TASKS}")):
        with pytest.raises(ConfigError) as exc:
            Config.from_text(text)
        assert str(exc.value) == message


def test_schema_lists_every_task_and_the_readme_every_key():
    assert set(TASKS) == set(_TASK_FNS)
    table = {(section, key): kind for task in SCHEMA
             for section, keys in SCHEMA[task].items()
             for key, (kind, *_) in keys.items()}
    # the README's config reference: one "| `[section] key` | kind |" row
    # per key
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| ([\w ]+?) \|",
                      README.read_text("utf-8"), flags=re.MULTILINE)
    assert len(rows) == len(table)
    assert {(section, key): kind for section, key, kind in rows} == table


def test_digest_tracks_content_not_formatting():
    cfg = Config.from_text(SAMPLE)
    shuffled = Config.from_text(
        "[solver]\ntable_points = 8\n\n"
        "[grid]\nz = 100:600:25nm\n"
        "[voltage]\napplied = 300mV\n"
        "[pipeline]\ntask = electrostatic_gradient\n"
        "[geometry]\nwall_angle = 94.6deg\ndepth = 98nm\nperiod = 400nm\n")
    assert cfg.digest() == shuffled.digest()
    changed = Config.from_text(SAMPLE.replace("98nm", "99nm"))
    assert cfg.digest() != changed.digest()


def test_inline_comments_are_stripped():
    cfg = Config.from_text("[geometry]\ndepth = 98nm  # etched\n")
    assert cfg.quantity("geometry", "depth") == pytest.approx(98e-9)


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text(SAMPLE)
    cfg = Config.from_file(path)
    assert cfg.integer("solver", "table_points") == 8

import glob

import pytest
import yaml
from numpy.testing import assert_allclose

from parma import ModelValidationError, modelio
from parma.modelio import (
    FileFormatError,
    dump_model,
    dump_path,
    format_number,
    load_model,
    load_series,
    save_model,
)
from parma.sim import SimPlan, simulate

from conftest import random_model

FIXTURES = "tests/fixtures"


class TestModelFiles:
    def test_roundtrip(self, rng, tmp_path):
        model = random_model(rng, p=2, q=1, l=3)
        target = tmp_path / "m.yaml"
        save_model(model, str(target))
        back = load_model(str(target))
        assert back.l == model.l and back.p == model.p and back.q == model.q
        assert_allclose(back.ar, model.ar)
        assert_allclose(back.ma, model.ma)
        assert_allclose(back.drift, model.drift)
        assert_allclose(back.sigma2, model.sigma2)

    def test_loads_fixture(self):
        model = load_model(f"{FIXTURES}/par12.yaml")
        assert model.l == 2 and model.p == 1
        assert_allclose(model.ar, [[0.5, 0.8]])

    def test_pure_python_parser_reads_the_same(self, monkeypatch, tmp_path):
        # load_model parses with libyaml when PyYAML has it; the fallback must agree
        (tmp_path / "junk.yaml").write_text("a: [unclosed\n")
        paths = sorted(glob.glob(f"{FIXTURES}/*.yaml")) + [str(tmp_path / "junk.yaml")]

        def load_all():
            out = []
            for path in paths:
                try:
                    m = load_model(path)
                    out.append((m.l, m.p, m.q, m.drift.tolist(), m.ar.tolist(),
                                m.ma.tolist(), m.sigma2.tolist()))
                except (FileFormatError, ModelValidationError) as exc:
                    out.append(type(exc).__name__)
            return out

        fast = load_all()
        monkeypatch.setattr(modelio, "_LOADER", yaml.SafeLoader)
        assert load_all() == fast

    def test_unknown_key_rejected(self):
        with pytest.raises(FileFormatError, match="unknown key"):
            load_model(f"{FIXTURES}/unknown_key.yaml")

    def test_invalid_numbers_raise_validation_error(self):
        with pytest.raises(ModelValidationError, match="strictly positive"):
            load_model(f"{FIXTURES}/bad_variance.yaml")

    def test_wrong_schema(self, tmp_path):
        target = tmp_path / "bad.yaml"
        target.write_text(dump_model(load_model(f"{FIXTURES}/par12.yaml"))
                          .replace("parma-model-v1", "parma-model-v9"))
        with pytest.raises(FileFormatError, match="schema"):
            load_model(str(target))

    def test_missing_key(self, tmp_path):
        target = tmp_path / "missing.yaml"
        target.write_text("schema: parma-model-v1\nl: 1\n")
        with pytest.raises(FileFormatError, match="missing key"):
            load_model(str(target))

    def test_not_yaml(self, tmp_path):
        target = tmp_path / "junk.yaml"
        target.write_text("a: [unclosed\n")
        with pytest.raises(FileFormatError, match="not valid YAML"):
            load_model(str(target))

    def test_non_integer_order(self, tmp_path):
        target = tmp_path / "bad.yaml"
        target.write_text(
            "schema: parma-model-v1\nl: 2\np: 1.5\nq: 0\ndrift: [0, 0]\n"
            "ar:\n- [0.5, 0.5]\nma: []\nsigma2: [1, 1]\n")
        with pytest.raises(FileFormatError, match="integer"):
            load_model(str(target))

    @pytest.mark.parametrize("field,value", [("l", "true"), ("p", "true"),
                                             ("q", "false")])
    def test_bool_order_rejected(self, tmp_path, field, value):
        doc = {"l": "1", "p": "1", "q": "0"}
        doc[field] = value
        target = tmp_path / "bool.yaml"
        target.write_text(
            f"schema: parma-model-v1\nl: {doc['l']}\np: {doc['p']}\n"
            f"q: {doc['q']}\ndrift: [0]\nar:\n- [0.5]\nma: []\nsigma2: [1]\n")
        with pytest.raises(FileFormatError, match=f"{field} must be an integer"):
            load_model(str(target))

    def test_ragged_arrays(self, tmp_path):
        target = tmp_path / "ragged.yaml"
        target.write_text(
            "schema: parma-model-v1\nl: 2\np: 2\nq: 0\ndrift: [0, 0]\n"
            "ar:\n- [0.5, 0.5]\n- [0.1]\nma: []\nsigma2: [1, 1]\n")
        with pytest.raises(FileFormatError, match="malformed"):
            load_model(str(target))

    def test_not_a_mapping(self, tmp_path):
        target = tmp_path / "seq.yaml"
        target.write_text("- 1\n- 2\n")
        with pytest.raises(FileFormatError, match="mapping"):
            load_model(str(target))


class TestSeriesFiles:
    def test_loads_and_tails(self):
        model = load_model(f"{FIXTURES}/par12.yaml")
        series = load_series(f"{FIXTURES}/series12.csv", model)
        assert series.last_time == 6
        assert_allclose(series.tail(1), [2.0])

    def test_season_mismatch_is_caught(self, tmp_path):
        model = load_model(f"{FIXTURES}/par12.yaml")
        target = tmp_path / "s.csv"
        target.write_text("time,season,value\n3,2,0.5\n")
        with pytest.raises(FileFormatError, match="season"):
            load_series(str(target), model)

    def test_gap_in_times_is_caught(self, tmp_path):
        model = load_model(f"{FIXTURES}/par12.yaml")
        target = tmp_path / "s.csv"
        target.write_text("time,season,value\n1,1,0.5\n3,1,0.2\n")
        with pytest.raises(FileFormatError, match="consecutive"):
            load_series(str(target), model)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        model = load_model(f"{FIXTURES}/par12.yaml")
        target = tmp_path / "s.csv"
        # the blank line counts: the message names the line in the file
        target.write_text(f"time,season,value\n1,1,0.5\n\n2,2,{value}\n")
        with pytest.raises(FileFormatError, match=f"s.csv:4: value {value} is not finite"):
            load_series(str(target), model)

    def test_bad_header(self, tmp_path):
        model = load_model(f"{FIXTURES}/par12.yaml")
        target = tmp_path / "s.csv"
        target.write_text("t,s,v\n1,1,0.5\n")
        with pytest.raises(FileFormatError, match="header"):
            load_series(str(target), model)

    def test_tail_needs_enough_points(self):
        model = load_model(f"{FIXTURES}/par12.yaml")
        series = load_series(f"{FIXTURES}/series12.csv", model)
        with pytest.raises(ValueError, match="at least"):
            series.tail(10)


class TestPathExport:
    def test_columns_and_precision(self, tmp_path):
        model = load_model(f"{FIXTURES}/par12.yaml")
        path = simulate(SimPlan(model, length=3, seed=0))
        target = tmp_path / "path.csv"
        with open(target, "w") as fh:
            dump_path(path, fh)
        lines = target.read_text().splitlines()
        assert lines[0] == "time,season,y,eps"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[:2] == ["1", "1"]
        assert float(first[2]) == pytest.approx(path.y[0], rel=1e-11)


class TestFormat:
    def test_twelve_significant_digits(self):
        assert format_number(1.0) == "1"
        assert format_number(1 / 3) == "0.333333333333"
        assert format_number(-1234567.891234567) == "-1234567.89123"

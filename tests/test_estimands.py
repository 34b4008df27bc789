import json

import numpy as np
import pytest

from rieszreg import (
    CONTRAST_TOKEN,
    Column,
    Dataset,
    MapTerm,
    SchemaError,
    SpecSyntaxError,
    SpecValidationError,
    apply_map,
    builtin_spec,
    format_spec,
    parse_spec,
    validate_binding,
)
from rieszreg.estimands import BUILTIN_NAMES
from rieszreg.simulate import substream

ATE_DOC = """
{
  "name": "ate",
  "stages": [
    {"regress": "Y", "given": ["A", "W"],
     "map": [{"coef": 1, "set": {"A": 1}}, {"coef": -1, "set": {"A": 0}}]},
    {"regress": "prev", "given": [], "map": [{"coef": 1, "set": {}}]}
  ]
}
"""


class TestParsing:
    def test_ate_document(self):
        spec = parse_spec(ATE_DOC)
        assert spec.depth == 2
        inner = spec.stage(2)
        assert inner.regress == "Y"
        assert inner.given == ("A", "W")
        assert [(t.coef, dict(t.assignments)) for t in inner.fmap.terms] == [
            (1.0, {"A": 1.0}), (-1.0, {"A": 0.0})]
        assert spec.stage(1).fmap.terms == (MapTerm(1.0, ()),)
        assert spec == builtin_spec("ate")

    def test_single_stage_subgroup_document(self):
        doc = json.dumps({
            "name": "treated_mean",
            "stages": [{"regress": "Y", "given": ["A"],
                        "map": [{"coef": 1, "set": {"A": 1}}]}],
        })
        spec = parse_spec(doc)
        assert spec.depth == 1
        assert spec.stage(1).fmap.terms[0].assignments == (("A", 1.0),)

    def test_syntax_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec('{"name": "x",\n  "stages": [}')
        assert err.value.line == 2

    def test_assigned_variable_missing_from_conditioning(self):
        doc = json.dumps({
            "name": "bad",
            "stages": [{"regress": "Y", "given": ["A"],
                        "map": [{"coef": 1, "set": {"M": 1}}]}],
        })
        with pytest.raises(SpecValidationError, match="conditioning set"):
            parse_spec(doc)

    def test_assignment_outside_innermost_conditioning(self):
        doc = json.dumps({
            "name": "bad",
            "stages": [
                {"regress": "Y", "given": ["A"],
                 "map": [{"coef": 1, "set": {"A": 1}}]},
                {"regress": "prev", "given": ["B"],
                 "map": [{"coef": 1, "set": {"B": 1}}]},
            ],
        })
        with pytest.raises(SpecValidationError, match="innermost"):
            parse_spec(doc)

    def test_outer_stage_with_unassigned_conditioning(self):
        doc = json.dumps({
            "name": "bad",
            "stages": [
                {"regress": "Y", "given": ["A", "W"],
                 "map": [{"coef": 1, "set": {"A": 1, "W": 0}}]},
                {"regress": "prev", "given": ["W"],
                 "map": [{"coef": 1, "set": {}}]},
            ],
        })
        with pytest.raises(SpecValidationError, match="marginal"):
            parse_spec(doc)

    @pytest.mark.parametrize("mutation,match", [
        ({"stages": []}, "nonempty"),
        ({"extra": 1}, "unknown key"),
        ({"name": ""}, "nonempty string"),
        ({"contrast": [1]}, "pair"),
    ])
    def test_document_level_invariants(self, mutation, match):
        doc = json.loads(ATE_DOC)
        doc.update(mutation)
        with pytest.raises(SpecValidationError, match=match):
            parse_spec(json.dumps(doc))

    def test_zero_coefficient_rejected(self):
        doc = json.loads(ATE_DOC)
        doc["stages"][0]["map"][0]["coef"] = 0
        with pytest.raises(SpecValidationError, match="nonzero"):
            parse_spec(json.dumps(doc))

    @pytest.mark.parametrize("coef", [float("nan"), float("inf")])
    def test_non_finite_coefficient_rejected(self, coef):
        doc = json.loads(ATE_DOC)
        doc["stages"][0]["map"][0]["coef"] = coef  # dumped as NaN / Infinity
        with pytest.raises(SpecValidationError, match="finite"):
            parse_spec(json.dumps(doc))

    def test_inner_stage_must_regress_outcome(self):
        doc = json.loads(ATE_DOC)
        doc["stages"][0]["regress"] = "prev"
        with pytest.raises(SpecValidationError, match="innermost"):
            parse_spec(json.dumps(doc))

    def test_contrast_token_requires_declared_contrast(self):
        doc = json.loads(ATE_DOC)
        doc["stages"][0]["map"][0]["set"]["A"] = CONTRAST_TOKEN
        with pytest.raises(SpecValidationError, match="contrast"):
            parse_spec(json.dumps(doc))

    def test_declared_contrast_requires_token(self):
        doc = json.loads(ATE_DOC)
        doc["contrast"] = [1, 0]
        with pytest.raises(SpecValidationError, match="parameter"):
            parse_spec(json.dumps(doc))


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_round_trip_bit_exactly(self, name):
        spec = builtin_spec(name)
        text = format_spec(spec)
        again = parse_spec(text)
        assert again == spec
        assert format_spec(again) == text

    def test_noncanonical_document_normalizes_stably(self):
        spec = parse_spec(ATE_DOC)
        canonical = format_spec(spec)
        assert parse_spec(canonical) == spec
        assert format_spec(parse_spec(canonical)) == canonical


class TestBuiltins:
    def test_known_names_and_shapes(self):
        assert builtin_spec("mean_treated").depth == 1
        assert builtin_spec("ate").depth == 2
        att = builtin_spec("att_control_mean")
        assert att.depth == 2
        assert att.stage(1).where == (("A", 1.0),)
        nde = builtin_spec("nde")
        assert nde.depth == 3
        assert nde.contrast == (1.0, 0.0)

    def test_unknown_name(self):
        with pytest.raises(SpecValidationError, match="unknown built-in"):
            builtin_spec("average_anything")

    def test_nde_instantiation_replaces_token(self):
        nde = builtin_spec("nde")
        arm = nde.instantiate(1.0)
        assert not arm.is_contrast
        assert arm.stage(3).fmap.terms[0].assignments == (("A", 1.0),)
        values = [v for st in arm.stages for t in st.fmap.terms for _, v in t.assignments]
        assert CONTRAST_TOKEN not in values


class TestApplyMap:
    def test_treatment_difference_on_linear_function(self):
        fmap = builtin_spec("ate").stage(2).fmap
        value = apply_map(fmap, lambda c: c["A"] + c["W"], {"A": 0.0, "W": 3.0})
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_difference_map_kills_constants(self):
        fmap = builtin_spec("ate").stage(2).fmap
        n = 11
        cols = {"A": np.zeros(n), "W": np.arange(n, dtype=float)}
        out = apply_map(fmap, lambda c: np.full(n, 4.2), cols)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_control_evaluation_map(self):
        fmap = builtin_spec("att_control_mean").stage(2).fmap
        value = apply_map(fmap, lambda c: 2 * c["A"] + c["W"], {"A": 1.0, "W": 1.0})
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_structural_linearity(self, appendix_data):
        rng = substream(314)
        maps = [builtin_spec("ate").stage(2).fmap,
                builtin_spec("att_control_mean").stage(2).fmap,
                builtin_spec("nde").instantiate(1.0).stage(3).fmap]
        for fmap in maps:
            for _ in range(25):
                c1, c2 = rng.normal(size=2)
                b1 = rng.normal(size=4)
                b2 = rng.normal(size=4)

                def f1(c, b=b1):
                    return b[0] + b[1] * c["A"] + b[2] * c["W"] + b[3] * c.get("M", c["W"])

                def f2(c, b=b2):
                    return b[0] + b[1] * c["A"] + b[2] * c["W"] + b[3] * c.get("M", c["W"])

                combo = apply_map(fmap, lambda c: c1 * f1(c) + c2 * f2(c), appendix_data)
                split = (c1 * apply_map(fmap, f1, appendix_data)
                         + c2 * apply_map(fmap, f2, appendix_data))
                np.testing.assert_allclose(combo, split, atol=1e-12)

    def test_assignment_outside_support_errors(self, appendix_data):
        doc = json.dumps({
            "name": "bad_level",
            "stages": [{"regress": "Y", "given": ["A"],
                        "map": [{"coef": 1, "set": {"A": 2}}]}],
        })
        spec = parse_spec(doc)
        with pytest.raises(SchemaError, match="support"):
            apply_map(spec.stage(1).fmap, lambda c: c["A"], appendix_data)
        with pytest.raises(SchemaError, match="support"):
            validate_binding(spec, appendix_data)

    def test_uninstantiated_contrast_errors(self, appendix_data):
        fmap = builtin_spec("nde").stage(3).fmap
        with pytest.raises(SpecValidationError, match="instantiate"):
            apply_map(fmap, lambda c: c["A"], appendix_data)


class TestBinding:
    def test_missing_column_names_the_column(self, discrete_data):
        spec = builtin_spec("nde")
        with pytest.raises(SchemaError, match="'M'"):
            validate_binding(spec, discrete_data)

    def test_exactly_one_outcome_required(self):
        schema = (Column("A", "treatment", "binary"),
                  Column("Y", "outcome", "binary"),
                  Column("Z", "outcome", "binary"))
        data = Dataset(schema, {"A": np.array([0.0, 1.0]),
                                "Y": np.array([0.0, 1.0]),
                                "Z": np.array([1.0, 0.0])})
        with pytest.raises(SchemaError, match="outcome"):
            validate_binding(builtin_spec("mean_treated"), data)

    def test_conditioning_on_outcome_rejected(self):
        doc = json.dumps({
            "name": "leaky",
            "stages": [{"regress": "Y", "given": ["A", "Y"],
                        "map": [{"coef": 1, "set": {"A": 1}}]},
                       {"regress": "prev", "given": [],
                        "map": [{"coef": 1, "set": {}}]}],
        })
        spec = parse_spec(doc)
        schema = (Column("A", "treatment", "binary"), Column("Y", "outcome", "binary"))
        data = Dataset(schema, {"A": np.array([0.0, 1.0]), "Y": np.array([1.0, 0.0])})
        with pytest.raises(SchemaError, match="outcome"):
            validate_binding(spec, data)

"""The public result records are immutable named tuples: one table over
all sixteen pins their fields, equality, hash, repr and _replace."""

import copy
import pickle
from fractions import Fraction

import pytest

from zetafix import (AffineMapSpec, CoincidenceNumbers, CongruenceReport,
                     Construction, CyclicDecomposition, EigenClassification,
                     FunctionalEquationReport, InvalidSpecFile, ManifoldSpec,
                     ParsedSpec, PlusSplit, SequenceFixture, SpecOptions,
                     TrichotomyReport, ValidationReport, ZetaDefinedness,
                     ZetaResult, check_gauss, coincidence_numbers,
                     coincidence_trichotomy, compute_plus_split,
                     cyclic_decomposition, load_fixture, nielsen_zeta,
                     parse_spec_data, reidemeister_zeta_defined,
                     serialize_spec, sol_r_sequence, validate_spec,
                     verify_functional_equation)


def _ex3():
    return load_fixture("heisenberg_ex3")


def _pair():
    parsed = load_fixture("halfturn_coincidence")
    return parsed.spec, parsed.mapping, parsed.mapping2


# type, a builder of one instance, and the fields that ==, hash and repr
# read (those of the frozen dataclasses the records replaced)
RECORDS = [
    (EigenClassification, lambda: _ex3().mapping.spectrum,
     "p n unit_modulus_count one_in_spectrum"),
    (CongruenceReport, lambda: check_gauss(sol_r_sequence(2).oracle(), 6),
     "kind checked_range violations skipped"),
    (SequenceFixture, lambda: sol_r_sequence(3),
     "name description degree_bound fn"),
    (Construction, lambda: Construction("sign-formula", "plus-proper", 1, 0),
     "kind case p n"),
    (ZetaResult, lambda: nielsen_zeta(_ex3().spec, _ex3().mapping),
     "which function construction"),
    (CoincidenceNumbers, lambda: coincidence_numbers(*_pair()),
     "lefschetz nielsen reidemeister"),
    (CyclicDecomposition, lambda: cyclic_decomposition(_pair()[0]),
     "generator_label order trivial sign rotation"),
    (TrichotomyReport, lambda: coincidence_trichotomy(*_pair()),
     "case predicted_nielsen averaged_nielsen det_diff_sign det_sum_sign "
     "m_triv k_tau"),
    (ManifoldSpec, lambda: _ex3().spec, "name dimension holonomy"),
    (AffineMapSpec, lambda: _ex3().mapping, "label linear translation"),
    (ValidationReport, lambda: validate_spec(_ex3().spec),
     "orientable element_orders identity"),
    (PlusSplit, lambda: compute_plus_split(_ex3().spec, _ex3().mapping),
     "plus_membership is_proper p n"),
    (ZetaDefinedness,
     lambda: reidemeister_zeta_defined(*load_fixture("quarter_rotation")[:2]),
     "status witness_n witness_label"),
    (SpecOptions, lambda: SpecOptions(Fraction(1, 4), 7),
     "tolerance n_max degree_bound_override"),
    (ParsedSpec, _ex3, "spec mapping mapping2 options"),
    (FunctionalEquationReport,
     lambda: verify_functional_equation(
         _ex3().spec, _ex3().mapping, nielsen_zeta(_ex3().spec, _ex3().mapping)),
     "holds epsilon degree_d case"),
]
IDS = [t.__name__ for t, _, _ in RECORDS]


def test_the_table_covers_every_record():
    assert len(set(IDS)) == 16


@pytest.mark.parametrize("record, build, names", RECORDS, ids=IDS)
class TestRecord:
    def test_fields(self, record, build, names):
        x = build()
        assert type(x) is record and isinstance(x, tuple)
        assert x._fields == tuple(names.split())

    def test_fields_cannot_be_assigned(self, record, build, names):
        x = build()
        for name in x._fields:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))

    def test_eq_and_hash_read_the_fields(self, record, build, names):
        x = build()
        values = tuple(getattr(x, name) for name in names.split())
        assert hash(x) == hash(values)
        same = x._replace()
        assert same == x and same is not x and hash(same) == hash(x)
        assert tuple(same) == values

    def test_repr(self, record, build, names):
        x = build()
        assert repr(x) == f"{record.__name__}(" + ", ".join(
            f"{name}={getattr(x, name)!r}" for name in names.split()) + ")"


def test_repr_text():
    assert repr(Construction("direct")) == \
        "Construction(kind='direct', case=None, p=None, n=None)"
    assert repr(SpecOptions()) == \
        "SpecOptions(tolerance=1e-10, n_max=12, degree_bound_override=None)"
    assert repr(ZetaDefinedness("defined")) == \
        "ZetaDefinedness(status='defined', witness_n=None, witness_label=None)"


def test_eigen_classification_keeps_its_core_beside_the_tuple():
    spectrum = load_fixture("quarter_rotation").mapping.spectrum
    assert spectrum._core and "_core" not in spectrum._fields
    other = EigenClassification(*spectrum, (1, 2, 3), 7)
    assert other == spectrum and hash(other) == hash(spectrum)
    assert repr(other) == repr(spectrum)
    for copied in (spectrum._replace(p=spectrum.p), copy.copy(spectrum),
                   pickle.loads(pickle.dumps(spectrum))):
        assert (copied._core, copied._core_on_circle) == \
            (spectrum._core, spectrum._core_on_circle)
        assert copied.root_of_unity_eigenvalue is True


def test_validation_report_keeps_its_tables_beside_the_tuple():
    report = validate_spec(_ex3().spec)
    other = ValidationReport(*report, products={}, exterior_traces=())
    assert other == report and hash(other) == hash(report)
    assert repr(other) == repr(report)
    copied = report._replace(identity=report.identity)
    assert copied.products is report.products
    assert copied.exterior_traces is report.exterior_traces


def test_cached_properties_are_kept_on_the_object():
    parsed = _ex3()
    spec, mapping = parsed.spec, parsed.mapping
    assert spec._group is spec._group is spec.__dict__["_group"]
    assert mapping.spectrum is mapping.spectrum is mapping.__dict__["spectrum"]
    spectrum = mapping.spectrum
    assert spectrum.root_of_unity_eigenvalue is False
    assert "root_of_unity_eigenvalue" in spectrum.__dict__


def test_manifold_spec_copies_leave_the_group_table_behind():
    spec = _ex3().spec
    assert spec.orientable and "_group" in spec.__dict__
    for copied in (copy.copy(spec), copy.deepcopy(spec),
                   pickle.loads(pickle.dumps(spec))):
        assert copied == spec and "_group" not in copied.__dict__


@pytest.mark.parametrize("changes", [{"n_max": 0}, {"tolerance": "0.5"},
                                     {"degree_bound_override": False}])
def test_spec_options_replace_runs_the_parser_checks(changes):
    data = serialize_spec(_ex3())
    data["options"] = changes
    with pytest.raises(InvalidSpecFile) as parsed:
        parse_spec_data(data)
    with pytest.raises(InvalidSpecFile) as replaced:
        SpecOptions()._replace(**changes)
    assert str(replaced.value) == str(parsed.value)


def test_spec_options_replace_stores_a_float_tolerance():
    opts = SpecOptions()._replace(tolerance=Fraction(1, 2))
    assert opts.tolerance == 0.5 and type(opts.tolerance) is float

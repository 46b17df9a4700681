"""Every check trips in some test: a ledger of the raise sites of the check
errors in src/gscohom.

A site is (module, function, error class, ordinal): the qualified name of
the enclosing function (nested names joined by dots, "" at module level)
and the place of the raise among the raises of that class in it, in source
order.  Each entry names the test that makes the site raise, with a minimal
input, or with a monkeypatched mutation where only a bug could reach it;
an entry "test[id]" names one case of a parametrized test by its id.  A
SchemaError site is tripped through the command line: its test runs the
CLI in a subprocess and asserts exit code 2, a JSON report with an `error`
and an empty stderr (`CLI_TESTS`).  The ledger is read off the source
with `ast`; no code is traced.
"""

import ast
import os
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src", "gscohom")

CHECK_ERRORS = ("VerificationFailed", "ComplexViolation", "NotASubcomplex",
                "InvalidCategory", "SchemaError")

# the tests of test_project_cli.py that run the CLI in a subprocess and
# assert exit code 2, a JSON `error` and an empty stderr
CLI_TESTS = ("test_cli_usage_error_is_json_with_an_empty_stderr",
             "test_malformed_project_is_a_schema_error_without_traceback",
             "test_malformed_category_or_algebra_is_a_schema_error",
             "test_malformed_datum_is_a_schema_error_without_traceback",
             "test_module_shapes_are_a_schema_error_under_python_O",
             "test_invalid_explicit_category_is_a_schema_error_under_python_O",
             "test_non_associative_algebra_is_a_schema_error_under_python_O",
             "test_cyclic_relations_are_a_schema_error_under_python_O")
USAGE = "test_project_cli.py::" + CLI_TESTS[0]
MALFORMED = "test_project_cli.py::" + CLI_TESTS[1]

TRIPPED_BY = {
    ("algebra", "quotient_by_columns", "VerificationFailed", 0):
        "test_gs.py::test_library_preconditions_raise_under_python_O",
    ("algebra", "quotient_module", "VerificationFailed", 0):
        "test_algebra.py::"
        "test_quotient_module_rejects_relations_the_action_moves",
    ("deform", "_verify", "VerificationFailed", 0):
        "test_deform.py::test_reduction_mod_eps_compares_every_block",
    ("descent", "DescentMachine.can_inverse", "VerificationFailed", 0):
        "test_descent.py::"
        "test_descent_and_presheaf_checks_raise_under_python_O",
    ("descent", "QPresheafObject._check_functorial", "VerificationFailed",
     0):
        "test_descent.py::"
        "test_comparison_presheaf_trips_on_a_non_functorial_transition",
    ("descent", "check_descent", "VerificationFailed", 0):
        "test_descent.py::"
        "test_descent_and_presheaf_checks_raise_under_python_O",
    ("descent", "pointwise_kernel", "VerificationFailed", 0):
        "test_descent.py::"
        "test_pointwise_kernel_trips_when_phi_leaves_the_kernel",
    ("descent", "pointwise_cokernel", "VerificationFailed", 0):
        "test_descent.py::"
        "test_descent_and_presheaf_checks_raise_under_python_O",
    ("descent", "pointwise_cokernel", "VerificationFailed", 1):
        "test_descent.py::"
        "test_pointwise_cokernel_trips_when_phi_is_not_well_defined",
    ("fincat", "FiniteCategory._validate", "InvalidCategory", 0):
        "test_fincat.py::test_explicit_categories_are_validated",
    ("fincat", "FiniteCategory._validate", "InvalidCategory", 1):
        "test_fincat.py::test_explicit_categories_are_validated",
    ("fincat", "FiniteCategory._validate", "InvalidCategory", 2):
        "test_fincat.py::test_explicit_categories_are_validated",
    ("fincat", "FiniteCategory._validate", "InvalidCategory", 3):
        "test_fincat.py::test_explicit_categories_are_validated",
    ("fincat", "FiniteCategory.__init__", "InvalidCategory", 0):
        "test_fincat.py::test_a_repeated_object_is_refused",
    ("fincat", "Simplex.__init__", "InvalidCategory", 0):
        "test_fincat.py::"
        "test_a_simplex_of_arrows_that_do_not_compose_is_refused",
    ("gs", "GSComplex.check_subcomplex", "NotASubcomplex", 0):
        "test_gs.py::test_check_subcomplex_trips_on_a_dropped_coordinate",
    ("gs", "GSComplex.check_bottom_row_split", "NotASubcomplex", 0):
        "test_gs.py::"
        "test_bottom_row_split_trips_on_a_nonzero_hochschild_block",
    ("gs", "GSComplex.hodge_eigendata", "VerificationFailed", 0):
        "test_gs.py::test_eigendata_certificate_rejects_a_defective_action",
    ("gs", "GSComplex.hodge_split", "VerificationFailed", 0):
        "test_gs.py::test_gs_checks_raise_under_python_O",
    ("gs", "GSComplex.hodge_cohomology", "NotASubcomplex", 0):
        "test_gs.py::test_stability_check_fails_on_a_perturbed_summand",
    ("gs", "factor_through_restrictions", "VerificationFailed", 0):
        "test_gs.py::test_factor_through_rejects_wrong_component",
    ("linalg", "cohomology", "ComplexViolation", 0):
        "test_linalg.py::test_cohomology_rejects_non_complex",
    ("linalg", "cohomology", "VerificationFailed", 0):
        "test_linalg.py::"
        "test_cohomology_trips_when_the_rows_at_t_out_are_dependent",
    ("linalg", "cohomology", "VerificationFailed", 1):
        "test_linalg.py::"
        "test_cohomology_trips_when_a_cleared_column_is_a_pivot",
    ("linalg", "cohomology", "VerificationFailed", 2):
        "test_linalg.py::"
        "test_cohomology_trips_when_a_representative_is_no_cocycle",
    ("linalg", "subcomplex_cohomology.restricted", "NotASubcomplex", 0):
        "test_linalg.py::test_subcomplex_cohomology_paths",
    ("shuffles", "certify_eulerian_family", "VerificationFailed", 0):
        "test_shuffles.py::test_certificate_rejects_wrong_sizes",
    ("shuffles", "certify_eulerian_family", "VerificationFailed", 1):
        "test_shuffles.py::test_certificate_rejects_a_scaled_family",
    ("shuffles", "certify_eulerian_family", "VerificationFailed", 2):
        "test_shuffles.py::"
        "test_certificate_rejects_a_permutation_moved_to_another_class",
    ("cli", "_check_usage", "SchemaError", 0): USAGE + "[negative-degree]",
    ("cli", "_check_usage", "SchemaError", 1): USAGE + "[kind-of-another]",
    ("cli", "cmd_cohomology", "SchemaError", 0): USAGE + "[unknown-object]",
    ("project", "parse_rat", "SchemaError", 0): MALFORMED + "[entry-null]",
    ("project", "parse_matrix", "SchemaError", 0):
        MALFORMED + "[restriction-empty]",
    ("project", "parse_matrix", "SchemaError", 1):
        "test_project_cli.py::" + CLI_TESTS[4] + "[action-ragged]",
    ("project", "parse_vector", "SchemaError", 0): MALFORMED + "[unit-null]",
    ("project", "_sized_matrix", "SchemaError", 0): MALFORMED + "[f1-shape]",
    ("project", "_sized_vector", "SchemaError", 0):
        MALFORMED + "[twist-length]",
    ("project", "_required", "SchemaError", 0): MALFORMED + "[no-unit]",
    ("project", "_object", "SchemaError", 0): MALFORMED + "[document-list]",
    ("project", "_list", "SchemaError", 0):
        "test_project_cli.py::" + CLI_TESTS[2] + "[mult-number]",
    ("project", "_name", "SchemaError", 0):
        "test_project_cli.py::" + CLI_TESTS[3] + "[module-name-list]",
    ("project", "_objects", "SchemaError", 0):
        "test_project_cli.py::" + CLI_TESTS[2] + "[object-twice]",
    ("project", "_known", "SchemaError", 0):
        MALFORMED + "[f1-unknown-morphism]",
    ("project", "_relations", "SchemaError", 0):
        MALFORMED + "[one-object-relation]",
    ("project", "_pair_key", "SchemaError", 0):
        MALFORMED + "[c1-without-semicolon]",
    ("project", "_arrow_pair", "SchemaError", 0):
        USAGE + "[twist-key-reversed]",
    ("project", "Project.meet_poset", "SchemaError", 0):
        USAGE + "[cech-without-meets]",
    ("project", "Project.cochain", "SchemaError", 0):
        USAGE + "[cocycle-not-present]",
    ("project", "Project.cochain", "SchemaError", 1):
        USAGE + "[factor-of-a-pair]",
    ("project", "Project.datum", "SchemaError", 0):
        USAGE + "[datum-not-present]",
    ("project", "Project.datum", "SchemaError", 1):
        USAGE + "[module-elsewhere]",
    ("project", "_load_category", "SchemaError", 0):
        "test_project_cli.py::" + CLI_TESTS[5] + "[identity-not-a-unit]",
    ("project", "_load_algebra", "SchemaError", 0):
        USAGE + "[zero-dimensional-algebra]",
    ("project", "_load_algebra", "SchemaError", 1): MALFORMED + "[mult-pair]",
    ("project", "_load_algebra", "SchemaError", 2):
        MALFORMED + "[mult-duplicate]",
    ("project", "_load_algebra", "SchemaError", 3):
        "test_project_cli.py::" + CLI_TESTS[6],
    ("project", "load_project", "SchemaError", 0):
        MALFORMED + "[schema-other]",
    ("project", "load_project", "SchemaError", 1): MALFORMED + "[no-presheaf]",
    ("project", "load_project", "SchemaError", 2):
        "test_project_cli.py::" + CLI_TESTS[7],
    ("project", "load_project", "SchemaError", 3):
        MALFORMED + "[algebra-unknown]",
    ("project", "load_project", "SchemaError", 4):
        MALFORMED + "[restriction-missing]",
    ("project", "load_project", "SchemaError", 5):
        MALFORMED + "[module-object-unknown]",
    ("project", "load_project", "SchemaError", 6):
        "test_project_cli.py::" + CLI_TESTS[4] + "[dim-negative]",
    ("project", "load_project", "SchemaError", 7):
        MALFORMED + "[action-not-a-list]",
    ("project", "load_project", "SchemaError", 8):
        MALFORMED + "[action-count]",
    ("project", "load_project", "SchemaError", 9):
        MALFORMED + "[not-a-module]",
    ("project", "_load_cochain", "SchemaError", 0):
        MALFORMED + "[cochain-empty]",
}


def raise_sites(module, text):
    """The sites of `raise E(...)` or `raise E` with E in CHECK_ERRORS in
    the module source `text`, in source order."""
    sites, seen = [], Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) \
                    else child.exc
                if isinstance(exc, ast.Name) and exc.id in CHECK_ERRORS:
                    key = (module, ".".join(scope), exc.id)
                    sites.append(key + (seen[key],))
                    seen[key] += 1
            visit(child, inner)

    visit(ast.parse(text), ())
    return sites


def library_sites():
    sites = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as handle:
                sites.extend(raise_sites(name[:-3], handle.read()))
    return sites


def test_every_check_site_has_a_tripping_test():
    sites = library_sites()
    assert len(sites) == len(set(sites))
    assert sorted(set(sites) - set(TRIPPED_BY)) == [], "sites without a test"
    assert sorted(set(TRIPPED_BY) - set(sites)) == [], "entries without a site"


def test_every_ledger_entry_names_an_existing_test():
    # a case id must be spelled out among the test file's strings
    missing = []
    for entry in sorted(set(TRIPPED_BY.values())):
        filename, test = entry.split("::")
        test, _, case = test.rstrip("]").partition("[")
        with open(os.path.join(HERE, filename)) as handle:
            tree = ast.parse(handle.read())
        strings = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)}
        if test not in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)} or \
                case and case not in strings:
            missing.append(entry)
    assert missing == []


def test_every_schema_error_site_is_tripped_through_the_cli():
    tests = {key: entry.split("::")[1].partition("[")[0]
             for key, entry in TRIPPED_BY.items() if key[2] == "SchemaError"}
    assert tests and all(test in CLI_TESTS for test in tests.values())


def test_the_site_parser_keys_by_function_class_and_ordinal():
    text = ("def f():\n"
            "    raise VerificationFailed('a')\n"
            "    raise NotASubcomplex\n"
            "    raise VerificationFailed('b')\n"
            "    raise ValueError('not a check')\n"
            "class C:\n"
            "    def g(self):\n"
            "        def h():\n"
            "            raise ComplexViolation('c')\n")
    assert raise_sites("m", text) == [
        ("m", "f", "VerificationFailed", 0), ("m", "f", "NotASubcomplex", 0),
        ("m", "f", "VerificationFailed", 1),
        ("m", "C.g.h", "ComplexViolation", 0)]

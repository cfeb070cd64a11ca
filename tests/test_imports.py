"""Every import in the library, the tests and the demos is used, and the
public API is the pinned list of names.

A name an import binds counts as used if the module reads it anywhere,
lists it in ``__all__``, or the import's lines carry a ``noqa`` comment.
"""

import ast
import pathlib

import ofpca

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src/ofpca", "tests", "demos")


def imported_names(tree: ast.Module):
    """(name, import node) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node


def exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(path: pathlib.Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
            for name, node in imported_names(tree)
            if name not in used
            and not any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno])]


def test_no_unused_imports():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    assert [hit for p in files for hit in unused_imports(p)] == []


#: ``ofpca.__all__``: adding or removing a public name is an edit here.
PUBLIC_API = [
    "BadRank", "BadWeights", "DegenerateVariance", "DistributionSimConfig", "EigenSystem",
    "FpcaFit", "InputError", "InvalidObject", "InvalidSurface", "KernelSurface",
    "NetworkSimConfig", "NonIntegrableEigenfunction", "ObjectPoint", "ObjectSample",
    "ObjectTrajectory", "OfpcaError", "SchemaError", "SpaceKind", "SpaceMismatch",
    "TooFewTrajectories", "distance", "distance_curves", "distribution_sim_basis",
    "eigendecompose", "estimate_cov_surface", "fit_fpca", "frechet_mean_trajectory",
    "frechet_scores", "isotonic_projection", "jacobi_polynomial", "metric_correlation",
    "metric_covariance", "metric_variance", "mise_report", "network_sim_basis",
    "normalize_eigenfunction", "object_fpc", "simulate", "squared_distance",
    "trapezoid_weights", "true_eigensystem",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 41
    assert sorted(ofpca.__all__) == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(ofpca, name)] == []

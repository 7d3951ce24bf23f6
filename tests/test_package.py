"""The package namespace: each module's ``__all__`` is its one export list."""

import ast
import importlib
import inspect
from pathlib import Path

import casimirdiff as cd
from casimirdiff import constants, experiment, lifshitz, materials

MODULES = (constants, experiment, lifshitz, materials)


def test_package_exports_each_module_all_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(cd.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(cd, name) is obj
            # a class or function is exported by the module that defines it
            assert getattr(obj, "__module__", module.__name__) == module.__name__


def test_package_init_names_no_public_name():
    tree = ast.parse(Path(cd.__file__).read_text(encoding="utf-8"))
    written = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            written.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            written.add(node.value)
        elif isinstance(node, ast.ImportFrom):
            written.update(alias.name for alias in node.names)
    assert not written & set(cd.__all__)


def test_every_module_level_name_is_exported_or_read():
    src = Path(cd.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = []
    for path, tree in trees.items():
        name = "casimirdiff" if path.stem == "__init__" else f"casimirdiff.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{n}" for n in defined
                     if not (n.startswith("__") and n.endswith("__"))
                     and n not in exported and n not in read]
    assert not dead


# every exported callable and dataclass constructor -> its parameter names: a
# new public option shows up here as an edit
SIGNATURES = {
    "CantileverParams": "k f_r Q B T",
    "Curve": "separations values metadata",
    "DrudeParams": "omega_p gamma",
    "HalfspacePair": "side_a side_b sphere_radius",
    "HighFreqTail": "eps_inf omega_inf",
    "MatsubaraGrid": "T rel_tol l_max_cap",
    "OpticalDataTable": "omega im_eps",
    "OscillatorParams": "omega Gamma strength",
    "PermittivityModel":
        "label oscillators tail drude table dc_conductor te_zero perfect_conductor",
    "ReflectionPair": "r_tm r_te",
    "SumDiagnostics": "n_terms last_term_rel converged",
    "TruncationError": "message diagnostics",
    "build_material": "name drude table label",
    "catalog_names": "",
    "difference_force": "probe mat_high mat_low R z grid low_freq_model with_diagnostics",
    "difference_force_curve": "probe mat_high mat_low R separations grid low_freq_model workers",
    "difference_pressure": "probe mat_high mat_low z grid low_freq_model with_diagnostics",
    "difference_pressure_curve": "probe mat_high mat_low separations grid low_freq_model workers",
    "ev_to_rad_s": "energy_ev",
    "five_point_gradient": "fn z",
    "free_energy_per_area": "pair z grid with_diagnostics",
    "kk_to_imaginary_axis": "table xi",
    "load_optical_table": "path",
    "matsubara_frequency": "l T",
    "min_detectable_force": "p",
    "plate_plate_pressure": "pair z grid with_diagnostics",
    "polylog3": "x",
    "pressure_from_force_gradient": "R dF_dz",
    "reflection_coefficients": "eps xi k_perp te_zero plasma_omega_p",
    "resonance_shift": "p force_gradient",
    "sphere_plate_force": "pair z grid with_diagnostics",
    "with_dc_conductivity": "model enabled",
    "with_te_zero": "model rule",
    "zero_freq_gap_force": "R z T eps0",
    "zero_freq_gap_pressure": "z T eps0",
}


def test_exported_signatures_are_pinned():
    assert {name: " ".join(inspect.signature(getattr(cd, name)).parameters)
            for name in cd.__all__} == SIGNATURES

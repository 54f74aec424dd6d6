"""ProjectIndex unit tests: resolution, cycles, dispatch, reachability."""

import os

import pytest

from repro.analysis.engine import load_project
from repro.analysis.project_index import (
    COMMON_METHOD_NAMES,
    DYNAMIC_FALLBACK_MAX,
    module_name_for,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def index_for(*fixtures):
    paths = [os.path.join(FIXTURES, f) for f in fixtures]
    project, errors = load_project(paths, root=FIXTURES)
    assert not errors
    return project.index()


@pytest.fixture(scope="module")
def playground():
    return index_for("index_playground.py")


@pytest.fixture(scope="module")
def xmod():
    return index_for(
        os.path.join("xmod", "__init__.py"),
        os.path.join("xmod", "storage.py"),
        os.path.join("xmod", "facade.py"),
    )


class TestModuleNames:
    def test_src_prefix_is_stripped(self, tmp_path):
        root = str(tmp_path)
        path = os.path.join(root, "src", "repro", "core", "heap.py")
        assert module_name_for(path, root) == "repro.core.heap"

    def test_init_maps_to_package(self, tmp_path):
        root = str(tmp_path)
        path = os.path.join(root, "pkg", "__init__.py")
        assert module_name_for(path, root) == "pkg"

    def test_outside_root_falls_back_to_stem(self, tmp_path):
        path = os.path.join(os.sep, "elsewhere", "thing.py")
        assert module_name_for(path, str(tmp_path)) == "thing"


class TestGraphBasics:
    def test_functions_and_classes_indexed(self, playground):
        assert "index_playground.ping" in playground.functions
        assert "index_playground.Gadget.recalibrate" in \
            playground.functions
        assert "index_playground.Gadget" in playground.classes

    def test_direct_call_edge(self, playground):
        edges = playground.edges["index_playground.ping"]
        assert "index_playground.pong" in edges


class TestCycles:
    def test_reachability_terminates_on_recursion_cycle(self, playground):
        reach = playground.reachable("index_playground.ping")
        assert "index_playground.pong" in reach
        assert "index_playground.ping" in reach
        assert reach["index_playground.ping"] == 0

    def test_find_path_handles_cycle(self, playground):
        path = playground.find_path(
            "index_playground.ping", {"index_playground.pong"}
        )
        assert path == ["index_playground.ping", "index_playground.pong"]

    def test_mro_survives_base_cycles(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            cyclic = os.path.join(tmp, "cyclic.py")
            with open(cyclic, "w") as handle:
                handle.write(
                    "class A(B):\n    def m(self):\n        return 1\n"
                    "class B(A):\n    pass\n"
                )
            project, _ = load_project([cyclic], root=tmp)
            index = project.index()
            # Illegal at runtime, but the analyzer must not hang.
            assert index.lookup_method("cyclic.B", "m") == "cyclic.A.m"


class TestDynamicDispatchFallback:
    def test_unique_owner_resolves_via_fallback(self, playground):
        sites = [
            site for site in playground.calls["index_playground.poke_untyped"]
            if "index_playground.Gadget.recalibrate" in site.targets
        ]
        assert len(sites) == 1
        assert sites[0].via_fallback

    def test_blocklisted_name_stays_unresolved(self, playground):
        assert "close" in COMMON_METHOD_NAMES
        assert not playground.edges.get(
            "index_playground.shutdown_untyped"
        )

    def test_too_many_owners_stays_unresolved(self, tmp_path):
        many = tmp_path / "many.py"
        classes = "\n".join(
            f"class C{i}:\n    def widen(self):\n        return {i}\n"
            for i in range(DYNAMIC_FALLBACK_MAX + 1)
        )
        many.write_text(
            classes + "\ndef use(thing):\n    return thing.widen()\n"
        )
        project, _ = load_project([str(many)], root=str(tmp_path))
        index = project.index()
        assert "many.use" in index.functions
        assert not index.edges.get("many.use")


class TestInheritance:
    def test_inherited_method_resolves_via_mro(self, playground):
        assert playground.lookup_method(
            "index_playground.Derived", "base_helper"
        ) == "index_playground.Base.base_helper"

    def test_typed_call_reaches_overridden_hook(self, playground):
        reach = playground.reachable("index_playground.drive")
        # drive -> Base.template -> self.hook, which may dispatch to
        # the Derived override, which calls the inherited helper.
        assert "index_playground.Base.template" in reach
        assert "index_playground.Derived.hook" in reach
        assert "index_playground.Base.base_helper" in reach


class TestCrossModuleAliasing:
    def test_aliased_class_import_resolves(self, xmod):
        edges = xmod.edges["xmod.facade.build_store"]
        assert "xmod.storage.XHeap.__init__" in edges

    def test_aliased_module_call_resolves(self, xmod):
        edges = xmod.edges["xmod.facade.count_paid"]
        assert "xmod.storage.make_heap" in edges

    def test_cross_module_return_type_threads_through(self, xmod):
        # count_free's receiver comes from build_store() -> Store,
        # an aliased cross-module class: the scan still resolves.
        edges = xmod.edges["xmod.facade.count_free"]
        assert "xmod.storage.XHeap.scan_rows" in edges


class TestDepthBound:
    def test_depth_bound_gives_up_explicitly(self, xmod):
        reach = xmod.reachable("xmod.facade.count_free", depth=1)
        assert "xmod.storage.XHeap.scan_rows" in reach
        assert "xmod.storage.XPage.live_rows" not in reach

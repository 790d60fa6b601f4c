"""Edge-case sweep across substrates: writer prefix scoping, SOAP
boundaries, service-data staleness, wrapper corner inputs."""

from repro.core.semantic import UNDEFINED_TYPE
from repro.soap import decode_response, encode_response, parse_envelope
from repro.xmlkit import Element, QName, parse, serialize


class TestWriterPrefixScoping:
    def test_child_reuses_parent_declaration(self):
        root = Element(QName("urn:x", "a"))
        root.declare("x", "urn:x")
        root.append(Element(QName("urn:x", "b")))
        out = serialize(root)
        assert out == '<x:a xmlns:x="urn:x"><x:b/></x:a>'

    def test_shadowed_prefix_not_reused(self):
        # The child rebinds 'p' to another URI; a grandchild in the first
        # URI must not pick the shadowed binding.
        root = Element(QName("urn:1", "a"))
        root.declare("p", "urn:1")
        child = Element(QName("urn:2", "b"))
        child.declare("p", "urn:2")
        grandchild = Element(QName("urn:1", "c"))
        child.append(grandchild)
        root.append(child)
        out = serialize(root)
        reparsed = parse(out).root
        assert reparsed.structurally_equal(root)

    def test_two_namespaces_generate_distinct_prefixes(self):
        root = Element(QName("urn:1", "a"))
        root.append(Element(QName("urn:2", "b")))
        reparsed = parse(serialize(root)).root
        assert reparsed.tag.namespace == "urn:1"
        assert next(reparsed.iter_elements()).tag.namespace == "urn:2"

    def test_attribute_in_same_namespace_as_default(self):
        root = Element(QName("urn:x", "a"), attrs={QName("urn:x", "attr"): "v"})
        root.declare("", "urn:x")
        reparsed = parse(serialize(root)).root
        assert reparsed.get(QName("urn:x", "attr")) == "v"

    def test_deeply_nested_roundtrip(self):
        root = Element("l0")
        node = root
        for i in range(1, 60):
            node = node.subelement(f"l{i}", None)
        assert parse(serialize(root)).root.structurally_equal(root)


def roundtrip(value: object) -> object:
    """*value* written into a response envelope, parsed and decoded."""
    return decode_response(encode_response("urn:t", "op", value)).value


class TestSoapBoundaries:
    def test_empty_string_array(self):
        assert roundtrip([]) == []

    def test_array_of_nils(self):
        assert roundtrip([None, None]) == [None, None]

    def test_unicode_payload(self):
        text = "مرحبا — ειρήνη — 平和 — ✓"
        assert roundtrip(text) == text

    def test_extreme_floats(self):
        for value in (1e-308, 1.7976931348623157e308, -0.0, 5e-324):
            assert roundtrip(value) == value

    def test_int_boundaries_pick_long(self):
        for value, wire in ((2**31, "xsd:long"), (2**31 - 1, "xsd:int")):
            entry = parse_envelope(encode_response("urn:t", "op", value)).first_body_entry()
            el = entry.find("return")
            assert el.attrs[QName("http://www.w3.org/2001/XMLSchema-instance", "type")] == wire

    def test_struct_with_empty_dict(self):
        assert roundtrip({}) == {}


class TestServiceDataFreshness:
    def test_execution_sdes_refresh_on_announce(self, fresh_grid):
        execution = fresh_grid.bind("HPL").all_executions()[0]
        exec_id = execution.info()["runid"]
        before = execution.find_service_data("timeStartEnd")
        fresh_grid.hpl_site.wrapper.conn.execute(
            "UPDATE hpl_runs SET runtimesec = 9999.0 WHERE runid = ?", [int(exec_id)]
        )
        container = fresh_grid.environment.container_for("hpl.pdx.edu:8080")
        for path in container.service_paths():
            service = container.service_at(path)
            if getattr(service, "exec_id", None) == exec_id:
                service.data_updated("runtime fixed")
        after = execution.find_service_data("timeStartEnd")
        assert before != after and "9999" in after


class TestWrapperCornerInputs:
    def test_hpl_inverted_time_window(self, shared_grid):
        execution = shared_grid.bind("HPL").all_executions()[0]
        # end < start: clipping yields an empty-span PR, not an error.
        results = execution.get_pr("gflops", ["/Run"], start=5.0, end=1.0)
        assert len(results) in (0, 1)

    def test_smg98_window_entirely_outside_run(self, shared_grid):
        execution = shared_grid.bind("SMG98").all_executions()[0]
        _, end = execution.time_range()
        results = execution.get_pr(
            "time_spent", ["/Code/SMG/smg_relax"], start=end + 10, end=end + 20
        )
        assert results == []

    def test_empty_foci_list(self, shared_grid):
        execution = shared_grid.bind("SMG98").all_executions()[0]
        assert execution.get_pr("time_spent", []) == []

    def test_duplicate_foci_duplicate_results(self, shared_grid):
        execution = shared_grid.bind("PRESTA-RMA").all_executions()[0]
        once = execution.get_pr("latency_us", ["/Op/MPI_Put"])
        twice = execution.get_pr("latency_us", ["/Op/MPI_Put", "/Op/MPI_Put"])
        assert len(twice) == 2 * len(once)

    def test_blank_result_type_matches_all(self, shared_grid):
        execution = shared_grid.bind("HPL").all_executions()[0]
        assert execution.get_pr("gflops", ["/Run"], result_type="") != []
        assert execution.get_pr("gflops", ["/Run"], result_type=UNDEFINED_TYPE) != []


class TestCacheKeyIsolationAcrossInstances:
    def test_two_executions_do_not_share_cache(self, fresh_grid):
        app = fresh_grid.bind("HPL")
        e1, e2 = app.all_executions()[:2]
        v1 = e1.get_pr("gflops", ["/Run"])[0].value
        v2 = e2.get_pr("gflops", ["/Run"])[0].value
        # Same query parameters, different instances: distinct results.
        assert v1 != v2

"""Tests for PortTypes, WSDL documents, and dynamic client stubs."""

import sys
import threading

import pytest

from repro.ogsi.porttypes import GRID_SERVICE_PORTTYPE
from repro.simnet.metrics import Recorder
from repro.simnet.transport import LoopbackTransport
from repro.soap import SoapEncodingError
from repro.soap.rpc import decode_request, encode_response
from repro.wsdl import (
    Operation,
    Parameter,
    PortType,
    StubError,
    generate_wsdl,
    make_stub,
    parse_wsdl,
)

ECHO_PT = PortType(
    "Echo",
    "urn:echo",
    (
        Operation(
            "echo",
            (Parameter("text", "xsd:string"),),
            "xsd:string",
            doc="Echoes its input.",
        ),
        Operation("add", (Parameter("a", "xsd:int"), Parameter("b", "xsd:int")), "xsd:int"),
        Operation("batch", (Parameter("items", "xsd:string[]"),), "xsd:string[]"),
        Operation("ping", (), "void"),
    ),
    extends=(GRID_SERVICE_PORTTYPE,),
)


class TestPortTypeModel:
    def test_all_operations_includes_inherited(self):
        names = {op.name for op in ECHO_PT.all_operations()}
        assert {"echo", "FindServiceData", "Destroy"} <= names

    def test_operation_lookup(self):
        assert ECHO_PT.operation("add").returns == "xsd:int"
        with pytest.raises(KeyError):
            ECHO_PT.operation("nope")

    def test_duplicate_operation_rejected(self):
        dup = Operation("echo", (), "void")
        with pytest.raises(SoapEncodingError):
            PortType("Bad", "urn:x", (dup,), extends=(ECHO_PT,))

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(SoapEncodingError):
            Operation("op", (Parameter("a", "xsd:int"), Parameter("a", "xsd:int")))

    def test_void_parameter_rejected(self):
        with pytest.raises(SoapEncodingError):
            Parameter("p", "void")

    def test_unknown_wire_type_rejected(self):
        with pytest.raises(SoapEncodingError):
            Parameter("p", "xsd:nonsense")
        with pytest.raises(SoapEncodingError):
            Operation("op", (), "void[]")

    def test_signature(self):
        assert ECHO_PT.operation("add").signature() == "xsd:int add(xsd:int a, xsd:int b)"


class TestWsdlDocument:
    def test_roundtrip(self):
        text = generate_wsdl(ECHO_PT, "http://host:1/services/echo")
        parsed, endpoint = parse_wsdl(text)
        assert endpoint == "http://host:1/services/echo"
        assert parsed.namespace == "urn:echo"
        # Flattened: inherited GridService ops appear directly.
        assert parsed.has_operation("echo")
        assert parsed.has_operation("FindServiceData")
        assert parsed.operation("echo").doc == "Echoes its input."
        assert [p.wire_type for p in parsed.operation("add").parameters] == [
            "xsd:int",
            "xsd:int",
        ]
        assert parsed.operation("ping").returns == "void"

    def test_extends_attribute_present(self):
        text = generate_wsdl(ECHO_PT, "http://h/e")
        assert 'extends="GridService"' in text

    def test_non_wsdl_document_rejected(self):
        with pytest.raises(ValueError):
            parse_wsdl("<html/>")


class _EchoHandler:
    """Server side for stub tests: decodes, dispatches, encodes."""

    def __call__(self, path: str, request: bytes) -> bytes:
        rpc = decode_request(request)
        if rpc.operation == "echo":
            result: object = "echo:" + rpc.params[0]
        elif rpc.operation == "add":
            result = rpc.params[0] + rpc.params[1]
        elif rpc.operation == "batch":
            result = [s.upper() for s in rpc.params[0]]
        elif rpc.operation == "ping":
            return encode_response(rpc.namespace, "ping", None, is_void=True)
        else:  # pragma: no cover
            raise AssertionError(rpc.operation)
        return encode_response(rpc.namespace, rpc.operation, result)


@pytest.fixture()
def stub():
    recorder = Recorder()
    transport = LoopbackTransport(recorder)
    transport.bind("host:1", _EchoHandler())
    return make_stub(ECHO_PT, "http://host:1/services/echo", transport)


class TestClientStub:
    def test_string_call(self, stub):
        assert stub.echo("hi") == "echo:hi"

    def test_int_call(self, stub):
        assert stub.add(2, 3) == 5

    def test_array_call(self, stub):
        assert stub.batch(["a", "b"]) == ["A", "B"]

    def test_void_call(self, stub):
        assert stub.ping() is None

    def test_invoke_by_name(self, stub):
        assert stub.invoke("echo", "x") == "echo:x"

    def test_one_callable_per_operation(self, stub):
        call = stub.echo
        assert stub.echo is call and call.__name__ == "echo"
        assert call("y") == "echo:y"
        assert stub.add is not call and stub.add(1, 2) == 3

    def test_threads_share_one_callable(self, stub):
        """Threads racing for an operation's first lookup all get one
        callable, and their calls through it answer their own arguments."""
        seen: list = []
        answers: list = []

        def work(k: int) -> None:
            for i in range(100):
                call = stub.echo
                seen.append(call)
                answers.append(call(f"{k}.{i}") == f"echo:{k}.{i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(call) for call in seen}) == 1 and seen[0] is stub.echo
        assert len(answers) == 400 and all(answers)

    def test_unknown_operation_raises(self, stub):
        with pytest.raises(AttributeError):
            stub.frobnicate
        with pytest.raises(StubError):
            stub.invoke("frobnicate")

    def test_wrong_arity_rejected_client_side(self, stub):
        with pytest.raises(StubError):
            stub.echo()
        with pytest.raises(StubError):
            stub.echo("a", "b")

    def test_wrong_type_rejected_client_side(self, stub):
        with pytest.raises(StubError):
            stub.echo(42)
        with pytest.raises(StubError):
            stub.add(1.5, 2)
        with pytest.raises(StubError):
            stub.add(True, 2)
        with pytest.raises(StubError):
            stub.batch("not-a-list")

    def test_nil_argument_allowed(self, stub):
        # None is representable on the wire for any declared type.
        with pytest.raises(TypeError):
            # The handler concatenates, so the failure is server-side —
            # the stub itself accepts the nil.
            stub.echo(None)

    def test_operation_names(self, stub):
        assert "echo" in stub.operation_names()
        assert "FindServiceData" in stub.operation_names()

    def test_bytes_recorded(self, stub):
        recorder = stub._transport.recorder
        before = recorder.bytes_total
        stub.echo("hello")
        assert recorder.bytes_total > before
        assert recorder.count("transport.calls") >= 1

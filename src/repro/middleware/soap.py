"""A gSOAP-style SOAP/HTTP RPC middleware over SysWrap sockets.

§4.3 lists gSOAP 2.2 among the middleware systems ported unchanged onto
PadicoTM; §2.1 motivates it with "a SOAP-based monitoring system of a MPI
application".  SOAP is the extreme point of the distributed paradigm:
text-based XML encoding (expensive per byte, great interoperability),
HTTP-style framing, dynamic client/server connections.

The implementation really produces and parses XML envelopes (a small,
self-contained encoder/parser — no external libraries), frames them in
HTTP/1.1 POST requests, and charges an encoding cost per byte that reflects
text conversion overhead.  Both ends run on SysWrap callbacks: HTTP messages
are parsed from a connection's buffer as it fills, and each charge is the
delay of the send or the completion it precedes.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.simnet.cost import MB, MICROSECOND
from repro.personalities.syswrap import ReplyQueue, RequestSession, SysWrap, SysWrapSocket

SoapValue = Union[int, float, str, bool, bytes, list]


@dataclass(frozen=True)
class SoapProfile:
    """Cost model for the SOAP engine (gSOAP is fast, for a SOAP stack)."""

    name: str = "gSOAP-2.2"
    per_call_overhead: float = 35.0 * MICROSECOND
    #: XML text encoding/decoding throughput.
    encode_bandwidth: float = 40.0 * MB

    def cost(self, nbytes: int) -> float:
        """The engine's time to encode or decode a message of ``nbytes``."""
        return self.per_call_overhead + nbytes / self.encode_bandwidth


class SoapFault(RuntimeError):
    """A SOAP fault returned by the remote side."""


# ---------------------------------------------------------------------------
# XML encoding (deliberately small: elements, attributes-free, typed leaves)
# ---------------------------------------------------------------------------

_XS_TYPES = {int: "xsd:int", float: "xsd:double", str: "xsd:string", bool: "xsd:boolean"}


def _encode_value(name: str, value: SoapValue) -> str:
    if isinstance(value, bool):
        return f'<{name} xsi:type="xsd:boolean">{"true" if value else "false"}</{name}>'
    if isinstance(value, int):
        return f'<{name} xsi:type="xsd:int">{value}</{name}>'
    if isinstance(value, float):
        return f'<{name} xsi:type="xsd:double">{value!r}</{name}>'
    if isinstance(value, str):
        escaped = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return f'<{name} xsi:type="xsd:string">{escaped}</{name}>'
    if isinstance(value, bytes):
        return f'<{name} xsi:type="xsd:base64Binary">{base64.b64encode(value).decode()}</{name}>'
    if isinstance(value, list):
        inner = "".join(_encode_value("item", item) for item in value)
        return f'<{name} xsi:type="soapenc:Array">{inner}</{name}>'
    raise TypeError(f"unsupported SOAP value type {type(value).__name__}")


_ELEMENT_RE = re.compile(
    r'<(?P<name>[\w:]+) xsi:type="(?P<type>[\w:]+)">(?P<body>.*?)</(?P=name)>', re.S
)


def _decode_body(body: str) -> List[Tuple[str, SoapValue]]:
    out: List[Tuple[str, SoapValue]] = []
    for match in _ELEMENT_RE.finditer(body):
        name, xsi_type, text = match.group("name"), match.group("type"), match.group("body")
        if xsi_type == "xsd:int":
            out.append((name, int(text)))
        elif xsi_type == "xsd:double":
            out.append((name, float(text)))
        elif xsi_type == "xsd:boolean":
            out.append((name, text == "true"))
        elif xsi_type == "xsd:string":
            out.append((name, text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")))
        elif xsi_type == "xsd:base64Binary":
            out.append((name, base64.b64decode(text)))
        elif xsi_type == "soapenc:Array":
            out.append((name, [v for _n, v in _decode_body(text)]))
    return out


def build_envelope(operation: str, params: Dict[str, SoapValue]) -> str:
    """Build a SOAP 1.1 request envelope for ``operation``."""
    body = "".join(map(_encode_value, params, params.values()))
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/" '
        'xmlns:xsd="http://www.w3.org/2001/XMLSchema" '
        'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
        'xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/">'
        f"<SOAP-ENV:Body><m:{operation} xmlns:m=\"urn:repro\">{body}</m:{operation}>"
        "</SOAP-ENV:Body></SOAP-ENV:Envelope>"
    )


def parse_envelope(xml: str) -> Tuple[str, List[Tuple[str, SoapValue]]]:
    """Parse an envelope; returns ``(operation, [(param, value), ...])``."""
    match = re.search(
        r"<m:(?P<op>[\w]+) xmlns:m=\"urn:repro\">(?P<body>.*?)</m:(?P=op)>", xml, re.S
    )
    if match is None:
        fault = re.search(r"<faultstring>(?P<msg>.*?)</faultstring>", xml, re.S)
        if fault:
            raise SoapFault(fault.group("msg"))
        raise SoapFault("malformed SOAP envelope")
    return match.group("op"), _decode_body(match.group("body"))


def build_fault(message: str) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/">'
        "<SOAP-ENV:Body><SOAP-ENV:Fault><faultcode>SOAP-ENV:Server</faultcode>"
        f"<faultstring>{message}</faultstring></SOAP-ENV:Fault></SOAP-ENV:Body></SOAP-ENV:Envelope>"
    )


# ---------------------------------------------------------------------------
# HTTP framing
# ---------------------------------------------------------------------------


def http_post(path: str, host: str, payload: bytes) -> bytes:
    headers = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: text/xml; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\nSOAPAction: \"\"\r\n\r\n"
    )
    return headers.encode("ascii") + payload


def http_response(payload: bytes, status: str = "200 OK") -> bytes:
    headers = (
        f"HTTP/1.1 {status}\r\nContent-Type: text/xml; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    return headers.encode("ascii") + payload


_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length:[ \t]*(\d+)", re.I)


def on_http_messages(sock: SysWrapSocket, on_message: Callable,
                     on_close: Optional[Callable] = None) -> None:
    """``on_message(body)`` for each HTTP message ``sock`` brings, parsed
    from its buffer as it fills (no read is posted); ``on_close(sock)`` once
    it closes."""
    size = end = 0  # the parsed message's length and header length, 0 until parsed

    def on_data(stream) -> None:
        nonlocal size, end
        buffered = stream.available()
        while buffered:
            if not size:
                head = stream.peek(buffered)
                end = head.find(b"\r\n\r\n") + 4
                if end < 4:
                    return
                length = _CONTENT_LENGTH.search(head, 0, end)
                size = end + (int(length.group(1)) if length else 0)
            if buffered < size:
                return
            stream.read_available(end)
            body = stream.read_available(size - end)
            buffered -= size
            size = 0
            on_message(body)

    sock.on_ready(on_data, on_close)


# ---------------------------------------------------------------------------
# Client / server engines
# ---------------------------------------------------------------------------


class SoapServer:
    """A SOAP RPC endpoint: registered handlers dispatched from HTTP POSTs,
    in order per connection, the decoding charge before the handler and the
    encoding charge before the reply's send."""

    def __init__(self, node, port: int, profile: Optional[SoapProfile] = None):
        self.node = node
        self.sim = node.sim
        self.port = port
        self.profile = profile or SoapProfile()
        self.syswrap = SysWrap(node.vlink)
        self._handlers: Dict[str, Callable] = {}
        self.requests_served = 0
        sock = self.syswrap.socket()
        sock.bind((node.host.name, port))
        sock.listen()
        sock.on_ready(self._serve)

    def register(self, operation: str, handler: Callable) -> None:
        """Register ``handler(**params)`` for ``operation``."""
        self._handlers[operation] = handler

    def _serve(self, sock: SysWrapSocket) -> None:
        replies = ReplyQueue(sock, self._handle, self._reply, self._fault)
        on_http_messages(sock, lambda body: replies.request(self.profile.cost(len(body)), body))

    def _handle(self, body: bytes):
        """``(operation, the handler's result)`` of a request."""
        operation, params = parse_envelope(body.decode("utf-8"))
        handler = self._handlers.get(operation)
        if handler is None:
            raise SoapFault(f"no such operation {operation!r}")
        return operation, handler(**dict(params))

    def _reply(self, operation: str, result):
        payload = build_envelope(f"{operation}Response", {"return": result}).encode("utf-8")
        self.requests_served += 1
        return self.profile.cost(len(payload)), http_response(payload)

    def _fault(self, _body, exc: Exception):
        payload = build_fault(str(exc)).encode("utf-8")
        return self.profile.cost(len(payload)), http_response(payload)


class SoapClient:
    """A SOAP RPC client bound to one endpoint: the encoding charge delays a
    call's send, the decoding charge its reply (replies come in call order)."""

    def __init__(self, node, server_host, port: int, profile: Optional[SoapProfile] = None):
        self.node = node
        self.sim = node.sim
        self.profile = profile or SoapProfile()
        self.syswrap = syswrap = SysWrap(node.vlink)
        self._host_header = str(server_host)
        self.session = RequestSession(syswrap, (server_host, port), on_http_messages, self._match)

    def call(self, operation: str, **params):
        """Invoke ``operation`` with keyword parameters (generator)."""
        envelope = build_envelope(operation, params).encode("utf-8")
        reply = self.sim.event(name="soap-reply")
        self.session.call(self.profile.cost(len(envelope)),
                          http_post("/soap", self._host_header, envelope), reply)
        body = yield reply
        return dict(parse_envelope(body.decode("utf-8"))[1]).get("return")

    def _match(self, body: bytes):
        """The session's matcher: replies come in call order, each once its
        decoding cost has elapsed."""
        return None, body, self.profile.cost(len(body))

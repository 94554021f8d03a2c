"""Personalities: thin, syntax-only wrappers over the abstract interfaces.

"In order to provide virtualized communication API, we propose a
personality layer able to supply various standard APIs on top of the
abstract interfaces.  Personalities are thin wrappers which adapt a generic
API to make it look like another API.  They do no protocol adaptation nor
paradigm translation; they only adapt the syntax." (§3.3)

PadicoTM's personalities, all reproduced here:

* :class:`~repro.personalities.vio.Vio` — explicit socket-like API over
  VLink ("Vio for an explicit use through a socket-like API").
* :class:`~repro.personalities.syswrap.SysWrap` — a 100 % BSD-socket
  compliant facade over VLink, used to run unmodified legacy middleware
  (the CORBA ORBs, gSOAP, the JVM socket layer, ...).
* :class:`~repro.personalities.aio.AioPersonality` — a POSIX.2 asynchronous
  I/O API over VLink.
* :class:`~repro.personalities.fastmessage.FastMessages` — the FastMessage
  2.0 API over Circuit.
* :class:`~repro.personalities.madeleine_api.VirtualMadeleine` — a virtual
  Madeleine channel over Circuit (what MPICH/Madeleine links against):
  packing to send, the Circuit's receive callback to receive.
"""

from repro.personalities.vio import Vio, VioSocket, VioError
from repro.personalities.syswrap import SysWrap, SysWrapSocket, SocketError
from repro.personalities.aio import AioPersonality, AioControlBlock, AioError, AIO_INPROGRESS
from repro.personalities.fastmessage import FastMessages, FMStream, FMError
from repro.personalities.madeleine_api import VirtualMadeleine, VirtualMadChannel

__all__ = [
    "Vio",
    "VioSocket",
    "VioError",
    "SysWrap",
    "SysWrapSocket",
    "SocketError",
    "AioPersonality",
    "AioControlBlock",
    "AioError",
    "AIO_INPROGRESS",
    "FastMessages",
    "FMStream",
    "FMError",
    "VirtualMadeleine",
    "VirtualMadChannel",
]

#: software cost of one personality-level call: a couple of pointer
#: indirections — "thin wrappers ... they only adapt the syntax".
PERSONALITY_OVERHEAD = 0.02e-6

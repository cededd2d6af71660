#pragma once

// The inert descriptor the typed port handles hand out for the coroutine
// protocol layer (protocol.hpp). It only names WHAT to await — a port half,
// an event type, a correlation predicate — and carries no binding to any
// component or frame. The binding happens when a Proto<> coroutine
// co_awaits it: the promise's await_transform attaches it to the awaiting
// component's protocol runner. Keeping it inert lets port.hpp build it
// from Positive<PT>/Negative<PT> (`co_await port.open<Pong>(pred)`) without
// depending on the protocol machinery.

namespace kompics {

class PortCore;

namespace protocol {

/// Default correlation predicate: accept every event of the awaited type.
struct AcceptAll {
  template <class E>
  bool operator()(const E&) const noexcept {
    return true;
  }
};

/// co_await port.open<E>(pred): returns a Stream<E> (protocol.hpp) that
/// subscribes immediately and buffers every matching event until consumed
/// with co_await stream.next(). The one way a frame awaits events: a
/// correlated reply is opened for before the request is triggered, and no
/// event arriving between a fire and the frame's resumption is lost. Does
/// not suspend.
template <class E, class Pred = AcceptAll>
struct OpenDesc {
  PortCore* half = nullptr;
  Pred pred{};
};

}  // namespace protocol
}  // namespace kompics

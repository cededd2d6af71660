#pragma once

// MonitorWebApp: the Web front-end of the monitoring server (paper §4.1,
// DESIGN.md §7). Where CatsWebApp serves ONE node's view, this serves the
// cluster: the aggregated global view, a Prometheus rollup of every node's
// numeric status fields, and — the cross-node tracing surface —
// /trace/<trace_id>, which pulls the span shard of every reporting node and
// merges them into one causal tree.
//
// Routes (behind web::HttpServer):
//   /trace/<id>  merged causal tree for trace <id> (JSON)
//   /metrics     cluster rollup; HttpServer prepends the kernel's own text
//   /            the global view, as render_text()
// Every other path is 404.

#include <cstdint>
#include <cstdlib>
#include <string>

#include "cats/monitor.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "web/web_port.hpp"

namespace kompics::web {

class MonitorWebApp : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    explicit Init(cats::MonitorServer* server) : server(server) {}
    /// Must outlive this component (both normally live under one parent).
    cats::MonitorServer* server;
  };

  MonitorWebApp() {
    subscribe<Init>(control(), [this](const Init& init) { server_ = init.server; });
    subscribe<WebRequest>(web_, [this](const WebRequest& req) {
      if (server_ == nullptr) {
        trigger(make_event<WebResponse>(req.id, 503, "text/plain", "monitor not wired"), web_);
        return;
      }
      constexpr const char* kTracePrefix = "/trace/";
      if (req.path.rfind(kTracePrefix, 0) == 0) {
        const char* digits = req.path.c_str() + std::string(kTracePrefix).size();
        char* end = nullptr;
        const unsigned long long id = std::strtoull(digits, &end, 10);
        if (end == digits || *end != '\0' || id > 0xFFFFFFFFull || id == 0) {
          trigger(make_event<WebResponse>(req.id, 404, "text/plain",
                                          "bad trace id: " + req.path),
                  web_);
          return;
        }
        // Blocking fan-out (one HTTP GET per reporting node) on this
        // handler; acceptable for an operator-facing debugging endpoint.
        trigger(make_event<WebResponse>(req.id, 200, "application/json",
                                        server_->assemble_trace(
                                            static_cast<std::uint32_t>(id))),
                web_);
        return;
      }
      if (req.path == "/metrics") {
        trigger(make_event<WebResponse>(req.id, 200, "text/plain; version=0.0.4",
                                        server_->render_cluster_metrics()),
                web_);
        return;
      }
      if (req.path != "/") {
        trigger(make_event<WebResponse>(req.id, 404, "text/plain", "not found: " + req.path),
                web_);
        return;
      }
      trigger(make_event<WebResponse>(req.id, 200, "text/plain", server_->render_text()),
              web_);
    });
  }

 private:
  Negative<Web> web_ = provide<Web>();
  cats::MonitorServer* server_ = nullptr;
};

}  // namespace kompics::web

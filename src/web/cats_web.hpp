#pragma once

// CatsWebApp (Fig. 10/11's "CATS Web Application"): provides the Web
// abstraction for one CATS node — an HTML page dumping the status of the
// node's components, with hyperlinks to its ring neighbors, "enabling
// users/developers to browse the set of nodes over the web and inspect the
// state of each remote node" (§4.1).
//
// Routes: `/` (the status page) and `/metrics`; every other path is 404.
//
// The app keeps a periodically refreshed cache of StatusResponses (its
// required Status port is connected to every functional component of the
// node) and serves pages from the cache, so HTTP worker threads never wait
// on protocol components.

#include <cctype>
#include <map>
#include <string>

#include "cats/ports.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "kompics/telemetry.hpp"
#include "timing/timer_port.hpp"
#include "web/web_port.hpp"

namespace kompics::web {

class CatsWebApp : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(cats::NodeRef self, DurationMs refresh_ms = 1000) : self(self), refresh_ms(refresh_ms) {}
    cats::NodeRef self;
    DurationMs refresh_ms;
  };

  CatsWebApp() {
    subscribe<Init>(control(), [this](const Init& init) {
      self_ = init.self;
      refresh_ms_ = init.refresh_ms;
    });
    subscribe<Start>(control(), [this](const Start&) {
      trigger(timing::schedule_periodic<Refresh>(1, refresh_ms_), timer_);
    });
    subscribe<Refresh>(timer_, [this](const Refresh&) {
      ++round_;
      trigger(make_event<cats::StatusRequest>(round_), status_);
    });
    subscribe<cats::StatusResponse>(status_, [this](const cats::StatusResponse& resp) {
      cache_[resp.component] = resp.fields;
    });
    subscribe<WebRequest>(web_, [this](const WebRequest& req) {
      if (req.path == "/metrics") {
        // Protocol-level counters (ring epoch, view installs/fences, quorum
        // retries, ...) in Prometheus text format — the kernel's own
        // /metrics covers the component runtime, this covers CATS itself.
        trigger(make_event<WebResponse>(req.id, 200, "text/plain; version=0.0.4",
                                        render_metrics()),
                web_);
        return;
      }
      if (req.path != "/") {
        trigger(make_event<WebResponse>(req.id, 404, "text/plain", "not found: " + req.path),
                web_);
        return;
      }
      trigger(make_event<WebResponse>(req.id, 200, "text/html", render()), web_);
    });
  }

  std::string render_metrics() const {
    std::string out;
    const std::string node = std::to_string(self_.addr.host);
    for (const auto& [component, fields] : cache_) {
      std::string comp;
      for (char c : component) {
        comp += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                    ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                    : '_';
      }
      for (const auto& [k, v] : fields) {
        // Only numeric gauges/counters belong on the metrics surface; status
        // strings (ring keys, successor lists) stay on the HTML page. The
        // field key lands in metric-name position, so it must be clamped to
        // the metric-name grammar — a dotted or quoted key would otherwise
        // break the whole scrape.
        if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) continue;
        out += "cats_" + comp + "_" + telemetry::sanitize_metric_name(k) + "{node=\"" +
               telemetry::escape_label_value(node) + "\"} " + v + "\n";
      }
    }
    return out;
  }

  std::string render() const {
    std::string html = "<html><head><title>CATS node " +
                       std::to_string(self_.addr.host) + "</title></head><body>";
    html += "<h1>CATS node " + self_.addr.to_node_string() + "</h1>";
    html += "<p>ring key: " + cats::ring_key_str(self_.key) + "</p>";
    for (const auto& [component, fields] : cache_) {
      html += "<h2>" + component + "</h2><table border=1>";
      for (const auto& [k, v] : fields) {
        html += "<tr><td>" + k + "</td><td>" + v + "</td></tr>";
      }
      html += "</table>";
    }
    html += "</body></html>";
    return html;
  }

 private:
  struct Refresh : timing::Timeout {
    KOMPICS_EVENT(Refresh, timing::Timeout);

    using Timeout::Timeout;
  };

  Negative<Web> web_ = provide<Web>();
  Positive<cats::Status> status_ = require<cats::Status>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();

  cats::NodeRef self_;
  DurationMs refresh_ms_ = 1000;
  cats::OpId round_ = 0;
  std::map<std::string, std::map<std::string, std::string>> cache_;
};

}  // namespace kompics::web

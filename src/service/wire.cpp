#include "service/wire.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/json_util.hpp"
#include "service/json.hpp"
#include "tabular/objective.hpp"

namespace hpb::service {

namespace {

/// Schema violation in a well-formed request; maps to bad_request.
class BadRequest : public std::exception {
 public:
  explicit BadRequest(std::string message) : message_(std::move(message)) {}
  [[nodiscard]] const char* what() const noexcept override {
    return message_.c_str();
  }

 private:
  std::string message_;
};

[[noreturn]] void bad(std::string message) {
  throw BadRequest(std::move(message));
}

}  // namespace

std::string error_response(std::string_view code, std::string_view message) {
  return std::string("{\"ok\":false,\"error\":{\"code\":\"") +
         obs::json_escape(code) + "\",\"message\":\"" +
         obs::json_escape(message) + "\"}}";
}

namespace {

/// Render a double as a JSON token; non-finite values (unreached best) as
/// null. obs::json_double would print bare `inf`/`nan`, which RFC 8259
/// forbids and our own parser rejects — null is the only wire-safe
/// spelling, with an explicit `*_finite:false` flag where the distinction
/// matters.
std::string json_number_or_null(double v) {
  return std::isfinite(v) ? obs::json_double(v) : "null";
}

std::string values_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += json_number_or_null(values[i]);
  }
  out += ']';
  return out;
}

std::string status_json(const core::SessionStatus& s) {
  std::string out = "{\"evaluations\":" + std::to_string(s.evaluations);
  out += ",\"failed\":" + std::to_string(s.num_failed);
  out += ",\"rounds\":" + std::to_string(s.rounds);
  out += ",\"pending\":" + std::to_string(s.pending);
  out += ",\"best_value\":" + json_number_or_null(s.best_value);
  if (!std::isfinite(s.best_value)) {
    // Distinguish "no finite best yet" from a JSON null a sloppy client
    // reads as 0; the key is present exactly when best_value is null.
    out += ",\"best_value_finite\":false";
  }
  out += ",\"best_config\":" + values_json(s.best_config);
  out += std::string(",\"stopped\":") + (s.stopped ? "true" : "false");
  if (s.stopped) {
    out += std::string(",\"reason\":\"") + core::stop_reason_name(s.reason) +
           "\"";
  }
  if (s.degraded) {
    // Read-only after a journal append failure; the key is present exactly
    // when the session rejects mutating verbs (see SessionStatus).
    out += ",\"degraded\":true,\"degraded_reason\":\"" +
           obs::json_escape(s.degraded_reason) + "\"";
  }
  if (s.async) {
    out += ",\"mode\":\"async\",\"pending_tokens\":[";
    for (std::size_t i = 0; i < s.pending_tokens.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += std::to_string(s.pending_tokens[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string status_reply(const core::SessionStatus& s) {
  return "{\"ok\":true,\"status\":" + status_json(s) + "}";
}

/// Reject keys outside `allowed` — the strictness that catches typo'd and
/// stale clients instead of silently ignoring half their request.
void require_only_keys(const JsonValue& request,
                       std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : request.as_object()) {
    bool known = false;
    for (const std::string_view a : allowed) {
      known = known || key == a;
    }
    if (!known) {
      bad("unknown key '" + key + "'");
    }
  }
}

const JsonValue& require_key(const JsonValue& request, const std::string& key) {
  const JsonValue* v = request.find(key);
  if (v == nullptr) {
    bad("missing required key '" + key + "'");
  }
  return *v;
}

std::string require_string(const JsonValue& request, const std::string& key) {
  const JsonValue& v = require_key(request, key);
  if (!v.is_string()) {
    bad("'" + key + "' must be a string, got " + v.kind_name());
  }
  return v.as_string();
}

double number_field(const JsonValue& request, const std::string& key,
                    double fallback) {
  const JsonValue* v = request.find(key);
  if (v == nullptr) {
    return fallback;
  }
  if (!v->is_number()) {
    bad("'" + key + "' must be a number, got " + v->kind_name());
  }
  return v->as_number();
}

std::size_t size_field(const JsonValue& request, const std::string& key,
                       std::size_t fallback) {
  const double v =
      number_field(request, key, static_cast<double>(fallback));
  if (v < 0.0 || v != std::floor(v) || v > 1e15) {
    bad("'" + key + "' must be a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

std::uint64_t token_field(const JsonValue& item, const std::string& key) {
  const JsonValue& v = require_key(item, key);
  if (!v.is_number()) {
    bad("'" + key + "' must be a number, got " + v.kind_name());
  }
  const double d = v.as_number();
  if (d < 1.0 || d != std::floor(d) || d > 9e15) {
    bad("'" + key + "' must be a positive integer token");
  }
  return static_cast<std::uint64_t>(d);
}

std::string handle_create(core::SessionManager& manager,
                          const JsonValue& request) {
  require_only_keys(request,
                    {"verb", "session", "dataset", "method", "seed",
                     "batch_size", "max_evaluations", "stagnation_patience",
                     "target_value", "mode"});
  core::SessionSpec spec;
  spec.name = require_string(request, "session");
  spec.dataset = require_string(request, "dataset");
  if (request.find("method") != nullptr) {
    spec.method = require_string(request, "method");
  }
  spec.seed = static_cast<std::uint64_t>(size_field(request, "seed", 42));
  spec.batch_size = size_field(request, "batch_size", 1);
  spec.stop.max_evaluations = size_field(request, "max_evaluations", 100);
  spec.stop.stagnation_patience = size_field(request, "stagnation_patience", 0);
  spec.stop.target_value = number_field(
      request, "target_value", -std::numeric_limits<double>::infinity());
  if (request.find("mode") != nullptr) {
    const std::string mode = require_string(request, "mode");
    if (mode == "async") {
      spec.mode = core::SessionMode::kAsync;
    } else if (mode != "sync") {
      bad("'mode' must be \"sync\" or \"async\", got \"" + mode + "\"");
    }
  }
  manager.create(spec);
  return "{\"ok\":true}";
}

/// Optional idempotency key: a client-chosen string naming this request.
/// Empty when absent.
std::string rid_field(const JsonValue& request) {
  const JsonValue* v = request.find("rid");
  if (v == nullptr) {
    return {};
  }
  if (!v->is_string()) {
    bad("'rid' must be a string, got " + std::string(v->kind_name()));
  }
  const std::string& rid = v->as_string();
  if (rid.empty() || rid.size() > 64) {
    bad("'rid' must be 1..64 characters");
  }
  return rid;
}

/// Parse a suggest request into the verb that answers it.
core::SessionManager::Verb suggest_verb(const JsonValue& request) {
  require_only_keys(request, {"verb", "session", "count", "rid"});
  const std::size_t count = size_field(request, "count", 0);
  return [count](core::Session& session, const core::SessionSpec& spec) {
    const std::vector<core::Suggestion> suggestions =
        session.suggest(count == 0 ? spec.batch_size : count);
    std::string out = "{\"ok\":true,\"configs\":[";
    for (std::size_t i = 0; i < suggestions.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += values_json(suggestions[i].config.values());
    }
    // Sync tokens stay internal: the round comes back by configuration.
    if (spec.mode == core::SessionMode::kAsync) {
      out += "],\"tokens\":[";
      for (std::size_t i = 0; i < suggestions.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        out += std::to_string(suggestions[i].token);
      }
    }
    out += "]}";
    return out;
  };
}

/// The outcome of results[index], shared by both result shapes: an
/// optional status (default ok) and a y present exactly when it is ok.
/// Failed evaluations carry no value (NaN, exactly as the in-process
/// engine records them); a y on a failed result is a client bug worth
/// flagging.
void parse_outcome(const JsonValue& item, std::size_t index,
                   tabular::EvalStatus& status, double& y) {
  const std::string at = "'results[" + std::to_string(index) + "]";
  status = tabular::EvalStatus::kOk;
  if (item.find("status") != nullptr) {
    const std::string label = require_string(item, "status");
    try {
      status = tabular::status_from_name(label);
    } catch (const Error&) {
      bad(at + ".status' has unknown value '" + label +
          "' (expected ok, invalid, crashed, or timeout)");
    }
  }
  y = std::numeric_limits<double>::quiet_NaN();
  if (status == tabular::EvalStatus::kOk) {
    const JsonValue& v = require_key(item, "y");
    if (!v.is_number()) {
      bad(at + ".y' must be a number");
    }
    y = v.as_number();
  } else if (item.find("y") != nullptr) {
    bad(at + ".y' must be omitted when status is not ok");
  }
}

/// A sync result: the evaluated configuration and its outcome.
core::Observation parse_result(const JsonValue& item, std::size_t index) {
  require_only_keys(item, {"config", "y", "status"});
  const JsonValue& config = require_key(item, "config");
  if (!config.is_array()) {
    bad("'results[" + std::to_string(index) + "].config' must be an array");
  }
  std::vector<double> values;
  values.reserve(config.as_array().size());
  for (const JsonValue& v : config.as_array()) {
    if (!v.is_number()) {
      bad("'results[" + std::to_string(index) +
          "].config' must contain only numbers");
    }
    values.push_back(v.as_number());
  }
  core::Observation o;
  o.config = space::Configuration(std::move(values));
  parse_outcome(item, index, o.status, o.y);
  return o;
}

/// An async result: the token it resolves and its outcome.
core::TokenResult parse_token_result(const JsonValue& item,
                                     std::size_t index) {
  require_only_keys(item, {"token", "y", "status"});
  core::TokenResult r;
  r.token = token_field(item, "token");
  parse_outcome(item, index, r.status, r.y);
  return r;
}

/// Parse an observe request into the verb that delivers its results.
core::SessionManager::Verb observe_verb(const JsonValue& request) {
  require_only_keys(request, {"verb", "session", "results", "rid"});
  const JsonValue& results = require_key(request, "results");
  if (!results.is_array()) {
    bad("'results' must be an array, got " + std::string(results.kind_name()));
  }
  const std::vector<JsonValue>& items = results.as_array();
  for (const JsonValue& item : items) {
    if (!item.is_object()) {
      bad("'results' must contain objects");
    }
  }
  // Token-carrying results select the async path; config-carrying results
  // the sync path. The two shapes must not mix in one delivery.
  const bool async = !items.empty() && items[0].find("token") != nullptr;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if ((items[i].find("token") != nullptr) != async) {
      bad("'results' mixes token (async) and config (sync) entries; "
          "deliver one kind per observe");
    }
  }
  if (async) {
    std::vector<core::TokenResult> parsed;
    parsed.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      parsed.push_back(parse_token_result(items[i], i));
    }
    return [parsed = std::move(parsed)](core::Session& session,
                                        const core::SessionSpec&) {
      session.observe(parsed);
      return status_reply(session.status());
    };
  }
  std::vector<core::Observation> observations;
  observations.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    observations.push_back(parse_result(items[i], i));
  }
  return [observations = std::move(observations)](
             core::Session& session, const core::SessionSpec&) {
    session.observe(observations);
    return status_reply(session.status());
  };
}

/// Parse a cancel request into the verb that releases its tokens.
core::SessionManager::Verb cancel_verb(const JsonValue& request) {
  require_only_keys(request, {"verb", "session", "tokens", "rid"});
  std::vector<std::uint64_t> tokens;
  if (const JsonValue* v = request.find("tokens"); v != nullptr) {
    if (!v->is_array()) {
      bad("'tokens' must be an array, got " + std::string(v->kind_name()));
    }
    tokens.reserve(v->as_array().size());
    for (const JsonValue& t : v->as_array()) {
      if (!t.is_number()) {
        bad("'tokens' must contain only numbers");
      }
      const double d = t.as_number();
      if (d < 1.0 || d != std::floor(d) || d > 9e15) {
        bad("'tokens' must contain positive integer tokens");
      }
      tokens.push_back(static_cast<std::uint64_t>(d));
    }
  }
  return [tokens = std::move(tokens)](core::Session& session,
                                      const core::SessionSpec&) {
    return "{\"ok\":true,\"cancelled\":" +
           std::to_string(session.cancel(tokens)) + "}";
  };
}

std::string handle_status(core::SessionManager& manager,
                          const JsonValue& request) {
  require_only_keys(request, {"verb", "session"});
  return *manager.run(require_string(request, "session"),
                      [](core::Session& session, const core::SessionSpec&) {
                        return status_reply(session.status());
                      });
}

std::string handle_close(core::SessionManager& manager,
                         const JsonValue& request) {
  require_only_keys(request, {"verb", "session"});
  const std::string name = require_string(request, "session");
  manager.close(name);
  return "{\"ok\":true}";
}

std::string handle_health(core::SessionManager& manager,
                          const JsonValue& request) {
  require_only_keys(request, {"verb"});
  const core::ManagerHealth h = manager.health();
  std::string out = "{\"ok\":true,\"health\":{";
  out += "\"resident\":" + std::to_string(h.resident);
  out += ",\"degraded\":" + std::to_string(h.degraded);
  out += ",\"created\":" + std::to_string(h.created);
  out += ",\"evicted\":" + std::to_string(h.evicted);
  out += ",\"resumed\":" + std::to_string(h.resumed);
  out += ",\"closed\":" + std::to_string(h.closed);
  out += ",\"adopted\":" + std::to_string(h.adopted);
  out += ",\"quarantined\":" + std::to_string(h.quarantined);
  out += "}}";
  return out;
}

}  // namespace

std::string WireService::handle_line(std::string_view line) {
  try {
    JsonValue request;
    try {
      request = parse_json(line);
    } catch (const JsonParseError& e) {
      return error_response(error_code::kParseError, e.what());
    }
    if (!request.is_object()) {
      bad(std::string("request must be a JSON object, got ") +
          request.kind_name());
    }
    const JsonValue* verb = request.find("verb");
    if (verb == nullptr || !verb->is_string()) {
      bad("missing required string key 'verb'");
    }
    const std::string& name = verb->as_string();
    if (name == "create") {
      return handle_create(manager_, request);
    }
    if (name == "suggest" || name == "observe" || name == "cancel") {
      const std::string session = require_string(request, "session");
      const std::string rid = rid_field(request);
      const core::SessionManager::Verb body =
          name == "suggest"   ? suggest_verb(request)
          : name == "observe" ? observe_verb(request)
                              : cancel_verb(request);
      std::optional<core::SessionManager::RequestKey> key;
      if (!rid.empty()) {
        key = core::SessionManager::RequestKey{.rid = rid, .request = line};
      }
      const std::optional<std::string> response =
          manager_.run(session, body, key);
      if (!response) {
        bad("'rid' \"" + rid +
            "\" was already used by a different request in this session; "
            "a retry must resend the identical request line");
      }
      return *response;
    }
    if (name == "status") {
      return handle_status(manager_, request);
    }
    if (name == "close") {
      return handle_close(manager_, request);
    }
    if (name == "health") {
      return handle_health(manager_, request);
    }
    return error_response(error_code::kUnknownVerb,
                          "unknown verb '" + name +
                              "' (expected create, suggest, observe, cancel, "
                              "status, close, or health)");
  } catch (const BadRequest& e) {
    return error_response(error_code::kBadRequest, e.what());
  } catch (const OverloadError& e) {
    // Admission control shed the request before any state change; the
    // client should back off and retry (same rid is safe).
    return error_response(error_code::kOverloaded, e.what());
  } catch (const Error& e) {
    // The manager or session rejected the verb (unknown session,
    // out-of-order observe, double close, ...): a client error, reported
    // structurally; the daemon and the session both stay consistent.
    return error_response(error_code::kSessionError, e.what());
  } catch (const std::exception& e) {
    return error_response(error_code::kInternal, e.what());
  }
}

}  // namespace hpb::service

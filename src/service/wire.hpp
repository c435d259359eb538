// Wire protocol of the tuning service: one JSON object per line in, one
// JSON object per line out.
//
// Requests name a verb and a session; the service routes them to the
// SessionManager. The schema is strict — unknown keys, wrong types, and
// missing required fields are rejected with a structured error before any
// state changes, so a buggy client cannot half-apply a request.
//
//   {"verb":"create","session":"s1","dataset":"kripke","method":"hiperbot",
//    "seed":7,"batch_size":4,"max_evaluations":100}
//   {"verb":"suggest","session":"s1","count":4}
//   {"verb":"observe","session":"s1",
//    "results":[{"config":[1,0,2],"y":12.5,"status":"ok"}]}
//   {"verb":"status","session":"s1"}
//   {"verb":"close","session":"s1"}
//
// Responses are {"ok":true,...} or
// {"ok":false,"error":{"code":"...","message":"..."}} with codes
// parse_error (malformed JSON), bad_request (schema violation),
// unknown_verb, session_error (the manager/session rejected the verb:
// unknown session, out-of-order observe, double close, ...), overloaded
// (an admission cap shed the request; retry after backoff), internal.
// Doubles render in shortest round-trip form (obs::json_double), so
// configuration values and objective values cross the wire bit-exactly.
//
// Idempotent retries: suggest / observe / cancel accept an optional
// client-chosen `"rid"` string (1..64 chars). The manager remembers the
// last SessionManager::kRidsPerSession successful requests in each
// session's registry entry, each request line beside its response; a
// retry — the byte-identical request line with the same rid — returns the
// recorded response byte-identically: no new tokens minted, no observation
// double-applied, no resume of an evicted session. A different request
// reusing a remembered rid is rejected with bad_request naming the rid; it
// executes nothing and records nothing. Error responses are not recorded,
// so a shed or rejected request may be retried with the same rid. The
// window survives eviction and dies with `close`; it is in-memory only:
// after a daemon restart a retried rid re-executes, which is why clients
// resync via `status` after a reconnect (see README, "Operating the
// daemon").
//
// handle_line never throws and never crashes the daemon: every failure,
// including a hostile request, becomes an error response.
#pragma once

#include <string>
#include <string_view>

#include "core/session_manager.hpp"

namespace hpb::service {

/// Stable error codes of the wire protocol.
namespace error_code {
inline constexpr std::string_view kParseError = "parse_error";
inline constexpr std::string_view kBadRequest = "bad_request";
inline constexpr std::string_view kUnknownVerb = "unknown_verb";
inline constexpr std::string_view kSessionError = "session_error";
inline constexpr std::string_view kOverloaded = "overloaded";
inline constexpr std::string_view kInternal = "internal";
}  // namespace error_code

/// Build one {"ok":false,...} response line (no trailing newline). Exposed
/// for the server's connection-shedding path, which must speak the same
/// error shape without owning a WireService.
[[nodiscard]] std::string error_response(std::string_view code,
                                         std::string_view message);

class WireService {
 public:
  explicit WireService(core::SessionManager& manager) : manager_(manager) {}

  WireService(const WireService&) = delete;
  WireService& operator=(const WireService&) = delete;

  /// Handle one request line (without the trailing newline) and return the
  /// response line (without a trailing newline). Thread-safe: verbs on
  /// different sessions run concurrently, the manager serializes verbs on
  /// the same session.
  [[nodiscard]] std::string handle_line(std::string_view line);

 private:
  core::SessionManager& manager_;
};

}  // namespace hpb::service

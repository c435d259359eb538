// Typed verbs over SessionManager::run for tests that drive a manager in
// process. The daemon drives the manager through the wire, whose verb
// bodies render replies; these return the session's values instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/session.hpp"
#include "core/session_manager.hpp"

namespace hpb::testutil {

/// Run `verb(session, spec)` on the named session and return its result.
template <typename F>
auto run_verb(core::SessionManager& manager, const std::string& name,
              F&& verb) {
  std::invoke_result_t<F&, core::Session&, const core::SessionSpec&> result{};
  (void)manager.run(name, [&](core::Session& session,
                              const core::SessionSpec& spec) {
    result = verb(session, spec);
    return std::string();
  });
  return result;
}

/// Up to k suggestions (0 = the session's batch size).
inline std::vector<core::Suggestion> suggest(core::SessionManager& manager,
                                             const std::string& name,
                                             std::size_t k) {
  return run_verb(manager, name,
                  [k](core::Session& session, const core::SessionSpec& spec) {
                    return session.suggest(k == 0 ? spec.batch_size : k);
                  });
}

/// Deliver a sync round by configuration; returns the status after it.
inline core::SessionStatus observe(
    core::SessionManager& manager, const std::string& name,
    const std::vector<core::Observation>& observations) {
  return run_verb(manager, name,
                  [&](core::Session& session, const core::SessionSpec&) {
                    session.observe(observations);
                    return session.status();
                  });
}

/// Deliver async results by token; returns the status after them.
inline core::SessionStatus observe(core::SessionManager& manager,
                                   const std::string& name,
                                   std::span<const core::TokenResult> results) {
  return run_verb(manager, name,
                  [&](core::Session& session, const core::SessionSpec&) {
                    session.observe(results);
                    return session.status();
                  });
}

/// Session::cancel on the named session; returns the number released.
inline std::size_t cancel(core::SessionManager& manager,
                          const std::string& name,
                          std::span<const std::uint64_t> tokens = {}) {
  return run_verb(manager, name,
                  [&](core::Session& session, const core::SessionSpec&) {
                    return session.cancel(tokens);
                  });
}

inline core::SessionStatus status(core::SessionManager& manager,
                                  const std::string& name) {
  return run_verb(manager, name,
                  [](core::Session& session, const core::SessionSpec&) {
                    return session.status();
                  });
}

}  // namespace hpb::testutil

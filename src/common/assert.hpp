// Contract-checking macros used throughout the library.
//
// Two tiers:
//
// GOSSIP_CHECK fires in all build types: model-honesty invariants (e.g. "a
// direct-addressed contact must target a known ID") are part of the paper's
// model and violating them silently would invalidate every measurement, so
// they are never compiled out. Violations throw gossip::ContractViolation,
// which makes them testable with gtest and recoverable in long experiment
// sweeps.
//
// GOSSIP_DCHECK fires only in audit builds (-DGOSSIP_AUDIT=ON, which defines
// GOSSIP_AUDIT and _GLIBCXX_ASSERTIONS): it arms the documented
// bounds-check-free and order-sensitive hot-path sites - the provenance
// tracer's armed-capacity claim, FlatIdIndex probe termination, the
// push/response stream decode bounds, the sharded merge preconditions -
// whose per-contact cost is deliberately not paid in Release. Audit failures throw the same
// ContractViolation, so tests/test_contracts.cpp can pin that each planted
// check actually fires. In non-audit builds GOSSIP_DCHECK compiles to
// nothing at all (the condition is not even evaluated); helper state that
// exists only to feed a DCHECK goes inside GOSSIP_AUDIT_ONLY(...), and a
// function whose only throw-site is a DCHECK stays `noexcept` in Release via
// GOSSIP_AUDIT_NOEXCEPT.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace gossip {

/// Thrown when a library precondition or model invariant is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void contract_failure(const char* expr, const char* file, int line,
                                          const std::string& msg) {
  std::ostringstream os;
  os << "contract violation: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " - " << msg;
  throw ContractViolation(os.str());
}
}  // namespace detail

}  // namespace gossip

#define GOSSIP_CHECK(expr)                                                   \
  do {                                                                       \
    if (!(expr)) ::gossip::detail::contract_failure(#expr, __FILE__, __LINE__, {}); \
  } while (0)

#define GOSSIP_CHECK_MSG(expr, msg)                                          \
  do {                                                                       \
    if (!(expr)) {                                                           \
      std::ostringstream gossip_check_os_;                                   \
      gossip_check_os_ << msg;                                               \
      ::gossip::detail::contract_failure(#expr, __FILE__, __LINE__,          \
                                         gossip_check_os_.str());            \
    }                                                                        \
  } while (0)

// Audit tier (see the header comment). GOSSIP_AUDIT is defined by the CMake
// option GOSSIP_AUDIT=ON; the sanitizer CI legs build with it so the planted
// checks run under ASan/UBSan too.
#if defined(GOSSIP_AUDIT)
#define GOSSIP_DCHECK(expr) GOSSIP_CHECK(expr)
#define GOSSIP_DCHECK_MSG(expr, msg) GOSSIP_CHECK_MSG(expr, msg)
/// Statements that exist only to feed a GOSSIP_DCHECK (probe counters,
/// shadow state). Compiled out with the checks.
#define GOSSIP_AUDIT_ONLY(...) __VA_ARGS__
/// Replaces `noexcept` on functions whose only throw-site is a DCHECK: the
/// audit build must let ContractViolation propagate (std::terminate would
/// make the planted checks untestable), Release keeps the noexcept codegen.
#define GOSSIP_AUDIT_NOEXCEPT
#else
#define GOSSIP_DCHECK(expr) \
  do {                      \
  } while (0)
#define GOSSIP_DCHECK_MSG(expr, msg) \
  do {                               \
  } while (0)
#define GOSSIP_AUDIT_ONLY(...)
#define GOSSIP_AUDIT_NOEXCEPT noexcept
#endif

// Contract-tier tests (PR 9): pins the two-tier macro semantics in
// common/assert.hpp and proves the planted GOSSIP_DCHECK sites actually
// fire in audit builds. The suite compiles in BOTH configurations - CI runs
// it plain (DCHECK disarmed: the checks must cost nothing and evaluate
// nothing) and under -DGOSSIP_AUDIT=ON (the checks must throw a catchable
// ContractViolation, which is what makes them testable at all - see
// GOSSIP_AUDIT_NOEXCEPT).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/flat_index.hpp"
#include "obs/provenance.hpp"

namespace {

using gossip::ContractViolation;

TEST(Contracts, CheckFiresInEveryBuild) {
  EXPECT_THROW(GOSSIP_CHECK(false), ContractViolation);
  EXPECT_THROW(GOSSIP_CHECK_MSG(false, "reason " << 42), ContractViolation);
  EXPECT_NO_THROW(GOSSIP_CHECK(true));
}

TEST(Contracts, DcheckArmedOnlyUnderAudit) {
#if defined(GOSSIP_AUDIT)
  EXPECT_THROW(GOSSIP_DCHECK(false), ContractViolation);
  EXPECT_THROW(GOSSIP_DCHECK_MSG(false, "audit " << 7), ContractViolation);
#else
  EXPECT_NO_THROW(GOSSIP_DCHECK(false));
  EXPECT_NO_THROW(GOSSIP_DCHECK_MSG(false, "disarmed"));
#endif
  EXPECT_NO_THROW(GOSSIP_DCHECK(true));
}

TEST(Contracts, DisarmedDcheckDoesNotEvaluateItsCondition) {
#if defined(GOSSIP_AUDIT)
  GTEST_SKIP() << "audit builds evaluate DCHECK conditions by design";
#else
  int evaluations = 0;
  [[maybe_unused]] const auto probe = [&evaluations]() {
    ++evaluations;
    return false;
  };
  GOSSIP_DCHECK(probe());
  GOSSIP_DCHECK_MSG(probe(), "never built");
  EXPECT_EQ(evaluations, 0) << "disarmed GOSSIP_DCHECK must compile to nothing";
#endif
}

// ISSUE site 2: ProvenanceTracer::try_claim documents `node < capacity()`
// as a caller-guaranteed precondition (the engine arms the tracer at the
// network's join ceiling before tracing). An unarmed tracer has capacity 0,
// so ANY claim violates it; in Release that read would be out of bounds,
// which is exactly why the audit check exists - so the call is only made
// under GOSSIP_AUDIT, where the DCHECK rejects it before the access.
TEST(Contracts, UnarmedTracerClaimFiresUnderAudit) {
  gossip::obs::ProvenanceTracer tracer;
  ASSERT_EQ(tracer.capacity(), 0u);
#if defined(GOSSIP_AUDIT)
  EXPECT_THROW((void)tracer.try_claim(0), ContractViolation);
#else
  GTEST_SKIP() << "precondition violation is undefined behaviour when disarmed";
#endif
}

TEST(Contracts, ArmedTracerClaimPastCapacityFiresUnderAudit) {
  gossip::obs::ProvenanceTracer tracer;
  tracer.arm(64);
  EXPECT_TRUE(tracer.try_claim(3));
  EXPECT_FALSE(tracer.try_claim(3)) << "second claim of the same node";
#if defined(GOSSIP_AUDIT)
  EXPECT_THROW((void)tracer.try_claim(64), ContractViolation);
  EXPECT_THROW(tracer.note_claimed_entry(7, 0, 0, 0), ContractViolation)
      << "entry store without a prior claim";
#endif
  // The claimed node's entry store is valid in every build.
  EXPECT_NO_THROW(tracer.note_claimed_entry(3, 1, 2, 0));
  EXPECT_EQ(tracer.entries()[3].informer, 1u);
}

// The audit tier must not reject correct fast-path usage: a FlatIdIndex at
// its contractual load factor resolves hits and misses without tripping the
// probe-termination counter.
TEST(Contracts, AuditedFlatIndexAcceptsValidProbes) {
  gossip::FlatIdIndex index;
  std::vector<gossip::NodeId> ids;
  ids.reserve(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    ids.push_back(gossip::NodeId{0x9E3779B97F4A7C15ULL * (i + 1)});
  }
  index.build(std::span<const gossip::NodeId>(ids));
  for (std::uint32_t i = 0; i < 256; ++i) {
    EXPECT_EQ(index.find(ids[i].raw()), i);
  }
  EXPECT_EQ(index.find(0xDEADBEEFULL), gossip::FlatIdIndex::kNotFound);
}

}  // namespace

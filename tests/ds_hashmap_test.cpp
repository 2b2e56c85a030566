// Michael hash map: semantics and concurrency over every SMR scheme.
#include "ds/michael_hashmap.hpp"

#include <stdexcept>

#include "ds_test_common.hpp"

namespace hyaline {
namespace {

using test_support::AllSchemes;

template <class D>
class MapTest : public test_support::ds_fixture<D, ds::michael_hashmap> {};

TYPED_TEST_SUITE(MapTest, AllSchemes);

TYPED_TEST(MapTest, EmptyMapBehaviour) {
  auto g = this->guard();
  EXPECT_FALSE(this->ds_->contains(g, 1));
  EXPECT_FALSE(this->ds_->remove(g, 1));
  EXPECT_EQ(this->ds_->unsafe_size(), 0u);
}

TYPED_TEST(MapTest, InsertGetRemoveRoundTrip) {
  auto g = this->guard();
  EXPECT_TRUE(this->ds_->insert(g, 123456789, 42));
  std::uint64_t v = 0;
  EXPECT_TRUE(this->ds_->get(g, 123456789, v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(this->ds_->remove(g, 123456789));
  EXPECT_FALSE(this->ds_->get(g, 123456789, v));
}

TYPED_TEST(MapTest, DuplicateInsertFails) {
  auto g = this->guard();
  EXPECT_TRUE(this->ds_->insert(g, 9, 1));
  EXPECT_FALSE(this->ds_->insert(g, 9, 2));
}

TYPED_TEST(MapTest, KeysCollidingInBucketsCoexist) {
  // The map has a fixed bucket count; keys 1..N with N >> buckets force
  // collisions into the same HM-list buckets.
  auto g = this->guard();
  for (std::uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(this->ds_->insert(g, k, k * 3));
  }
  for (std::uint64_t k = 0; k < 2000; ++k) {
    std::uint64_t v = 0;
    ASSERT_TRUE(this->ds_->get(g, k, v));
    ASSERT_EQ(v, k * 3);
  }
  EXPECT_EQ(this->ds_->unsafe_size(), 2000u);
}

TYPED_TEST(MapTest, ZeroBucketsThrows) {
  EXPECT_THROW(ds::michael_hashmap<TypeParam>(*this->dom_, 0),
               std::invalid_argument);
}

TYPED_TEST(MapTest, BucketCountRoundsUpToPowerOfTwo) {
  ds::michael_hashmap<TypeParam> map(*this->dom_, 100);
  EXPECT_EQ(map.bucket_count(), 128u);
  auto g = this->guard();
  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(map.insert(g, k, k + 7));
  }
  for (std::uint64_t k = 0; k < 300; ++k) {
    std::uint64_t v = 0;
    ASSERT_TRUE(map.get(g, k, v));
    ASSERT_EQ(v, k + 7);
  }
  for (std::uint64_t k = 0; k < 300; k += 3) {
    ASSERT_TRUE(map.remove(g, k));
  }
  std::uint64_t v = 0;
  EXPECT_FALSE(map.get(g, 3, v));
  EXPECT_TRUE(map.get(g, 4, v));
  EXPECT_EQ(map.unsafe_size(), 200u);
}

TYPED_TEST(MapTest, ChurnSingleBucketReclaims) {
  for (int round = 0; round < 200; ++round) {
    auto g = this->guard();
    ASSERT_TRUE(this->ds_->insert(g, 7, round));
    ASSERT_TRUE(this->ds_->remove(g, 7));
  }
  EXPECT_GE(this->dom_->counters().retired.load(std::memory_order_relaxed), 200u);
}

TYPED_TEST(MapTest, MixedStressFourThreads) {
  test_support::run_mixed_stress(*this->dom_, *this->ds_, 4, 8000, 512);
}

TYPED_TEST(MapTest, OversubscribedThreads) {
  // More threads than any realistic core count on CI: the regime where
  // the paper's Figure 8c separates Hyaline from the field.
  test_support::run_mixed_stress(*this->dom_, *this->ds_, 8, 2000, 256);
}

}  // namespace
}  // namespace hyaline

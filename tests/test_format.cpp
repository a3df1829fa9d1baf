#include "util/format.hpp"

#include <gtest/gtest.h>

#include "util/env.hpp"

namespace sntrust {
namespace {

TEST(Format, WithThousandsSmall) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(7), "7");
  EXPECT_EQ(with_thousands(999), "999");
}

TEST(Format, WithThousandsGroups) {
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(12345), "12,345");
  EXPECT_EQ(with_thousands(123456), "123,456");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(1000000000ULL), "1,000,000,000");
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 3), "2.000");
  EXPECT_EQ(fixed(-0.5, 1), "-0.5");
}

TEST(Format, CompactTrimsNoise) {
  EXPECT_EQ(compact(0.5), "0.5");
  EXPECT_EQ(compact(2.0), "2");
  EXPECT_EQ(compact(123456789.0, 3), "1.23e+08");
}

TEST(Format, MuCellMarksCapped) {
  EXPECT_EQ(mu_cell(0.99731, true), "0.9973");
  EXPECT_EQ(mu_cell(0.99731, false), "0.9973 (capped)");
}

TEST(Env, DoubleFallsBackWhenUnset) {
  unsetenv("SNTRUST_TEST_VAR");
  EXPECT_DOUBLE_EQ(env_double("SNTRUST_TEST_VAR", 2.5), 2.5);
}

TEST(Env, DoubleParsesValue) {
  setenv("SNTRUST_TEST_VAR", "1.75", 1);
  EXPECT_DOUBLE_EQ(env_double("SNTRUST_TEST_VAR", 0.0), 1.75);
  unsetenv("SNTRUST_TEST_VAR");
}

TEST(Env, DoubleFallsBackOnGarbage) {
  setenv("SNTRUST_TEST_VAR", "banana", 1);
  EXPECT_DOUBLE_EQ(env_double("SNTRUST_TEST_VAR", 3.0), 3.0);
  unsetenv("SNTRUST_TEST_VAR");
}

TEST(Env, IntParsesAndFallsBack) {
  setenv("SNTRUST_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("SNTRUST_TEST_INT", 0), 42);
  setenv("SNTRUST_TEST_INT", "x", 1);
  EXPECT_EQ(env_int("SNTRUST_TEST_INT", 9), 9);
  unsetenv("SNTRUST_TEST_INT");
}

TEST(Env, BenchScaleClampsRange) {
  setenv("SNTRUST_SCALE", "0.0001", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.01);
  setenv("SNTRUST_SCALE", "1000", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 100.0);
  setenv("SNTRUST_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.5);
  unsetenv("SNTRUST_SCALE");
}

}  // namespace
}  // namespace sntrust

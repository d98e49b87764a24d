// Tests for TL_CHECK and require(): the condition is evaluated exactly once,
// the message expression only when the check fails, and a failing check
// throws tensorlib::Error carrying the message.
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <string>

#include "linalg/matrix.hpp"

namespace tensorlib {
namespace {

struct Counters {
  int conditions = 0;
  int messages = 0;
};

bool countedCondition(Counters& c, bool value) {
  ++c.conditions;
  return value;
}

std::string countedMessage(Counters& c, const std::string& text) {
  ++c.messages;
  return text;
}

TEST(TlCheck, PassingCheckNeverBuildsItsMessage) {
  Counters c;
  for (int i = 0; i < 100; ++i)
    TL_CHECK(countedCondition(c, true), countedMessage(c, "unused " + std::to_string(i)));
  EXPECT_EQ(c.conditions, 100);
  EXPECT_EQ(c.messages, 0);
}

TEST(TlCheck, ConditionIsEvaluatedExactlyOnce) {
  int calls = 0;
  TL_CHECK(++calls > 0, "never fails");
  EXPECT_EQ(calls, 1);
  Counters c;
  EXPECT_THROW(TL_CHECK(countedCondition(c, false), countedMessage(c, "boom")), Error);
  EXPECT_EQ(c.conditions, 1);
  EXPECT_EQ(c.messages, 1);
}

TEST(TlCheck, FailingCheckThrowsErrorWithLiteralMessage) {
  try {
    TL_CHECK(1 + 1 == 3, "arithmetic is broken");
    FAIL() << "TL_CHECK did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "arithmetic is broken");
  }
}

TEST(TlCheck, FailingCheckThrowsErrorWithConcatenatedMessage) {
  const linalg::IntMatrix t{{1, 2}, {3, 4}};
  try {
    TL_CHECK(t.rows() == 3, "STT matrix must be 3x3: " + t.str());
    FAIL() << "TL_CHECK did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "STT matrix must be 3x3: " + t.str());
  }
}

TEST(TlCheck, WorksAsASingleStatementInUnbracedBranches) {
  int taken = 0;
  for (int i = 0; i < 4; ++i)
    if (i % 2 == 0)
      TL_CHECK(++taken > 0, "unreachable");
    else
      ++taken;
  EXPECT_EQ(taken, 4);
}

TEST(Require, DirectCallersStillThrowOnlyOnFailure) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, std::string("require ") + "failed");
    FAIL() << "require did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "require failed");
  }
  EXPECT_THROW(fail("always"), Error);
}

}  // namespace
}  // namespace tensorlib

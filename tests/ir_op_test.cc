/**
 * @file
 * Operation-set tests: property table consistency and functional
 * evaluation of every opcode, including the fixed-point nonlinear
 * units of the Table 4 special PEs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ir/op.h"
#include "sim/rng.h"

namespace marionette
{
namespace
{

TEST(OpInfo, EveryOpcodeHasAMnemonic)
{
    for (int i = 0;
         i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        auto name = opName(static_cast<Opcode>(i));
        EXPECT_FALSE(name.empty()) << "opcode " << i;
    }
}

TEST(OpInfo, ControlOpsAreBranchAndLoopOnly)
{
    for (int i = 0;
         i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        auto op = static_cast<Opcode>(i);
        bool expected =
            op == Opcode::Branch || op == Opcode::Loop;
        EXPECT_EQ(isControlOp(op), expected) << opName(op);
    }
}

TEST(OpInfo, MemoryOpsAreLoadAndStoreOnly)
{
    for (int i = 0;
         i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        auto op = static_cast<Opcode>(i);
        bool expected =
            op == Opcode::Load || op == Opcode::Store;
        EXPECT_EQ(isMemoryOp(op), expected) << opName(op);
    }
}

TEST(OpInfo, NonlinearClassMatchesHelper)
{
    EXPECT_TRUE(isNonlinearOp(Opcode::Log2Fix));
    EXPECT_TRUE(isNonlinearOp(Opcode::SigmoidFix));
    EXPECT_TRUE(isNonlinearOp(Opcode::SqrtFix));
    EXPECT_FALSE(isNonlinearOp(Opcode::Mul));
}

struct AluCase
{
    Opcode op;
    Word a, b, c, expect;
};

class AluEval : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluEval, Evaluates)
{
    const AluCase &t = GetParam();
    EXPECT_EQ(evalOp(t.op, t.a, t.b, t.c), t.expect)
        << opName(t.op) << "(" << t.a << "," << t.b << "," << t.c
        << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, AluEval,
    ::testing::Values(
        AluCase{Opcode::Add, 3, 4, 0, 7},
        AluCase{Opcode::Add, 0x7fffffff, 1, 0,
                static_cast<Word>(0x80000000)}, // wraps.
        AluCase{Opcode::Sub, 3, 4, 0, -1},
        AluCase{Opcode::Mul, -3, 4, 0, -12},
        AluCase{Opcode::Div, 7, 2, 0, 3},
        AluCase{Opcode::Div, 7, 0, 0, 0}, // div-by-zero -> 0.
        AluCase{Opcode::Rem, 7, 3, 0, 1},
        AluCase{Opcode::Rem, 7, 0, 0, 0},
        AluCase{Opcode::Mac, 3, 4, 5, 17},
        AluCase{Opcode::Abs, -9, 0, 0, 9},
        AluCase{Opcode::Abs, 9, 0, 0, 9},
        AluCase{Opcode::Min, 3, -2, 0, -2},
        AluCase{Opcode::Max, 3, -2, 0, 3},
        AluCase{Opcode::Neg, 5, 0, 0, -5},
        AluCase{Opcode::And, 0b1100, 0b1010, 0, 0b1000},
        AluCase{Opcode::Or, 0b1100, 0b1010, 0, 0b1110},
        AluCase{Opcode::Xor, 0b1100, 0b1010, 0, 0b0110},
        AluCase{Opcode::Not, 0, 0, 0, -1},
        AluCase{Opcode::Shl, 1, 4, 0, 16},
        AluCase{Opcode::Shr, -1, 28, 0, 15},
        AluCase{Opcode::Sra, -16, 2, 0, -4},
        AluCase{Opcode::CmpEq, 4, 4, 0, 1},
        AluCase{Opcode::CmpNe, 4, 4, 0, 0},
        AluCase{Opcode::CmpLt, -1, 0, 0, 1},
        AluCase{Opcode::CmpLe, 0, 0, 0, 1},
        AluCase{Opcode::CmpGt, 1, 0, 0, 1},
        AluCase{Opcode::CmpGe, -1, 0, 0, 0},
        AluCase{Opcode::Select, 1, 10, 20, 10},
        AluCase{Opcode::Select, 0, 10, 20, 20},
        AluCase{Opcode::Copy, 42, 0, 0, 42},
        AluCase{Opcode::Phi, 42, 7, 0, 42},
        AluCase{Opcode::Branch, 5, 0, 0, 1},
        AluCase{Opcode::Branch, 0, 0, 0, 0},
        AluCase{Opcode::Loop, 3, 10, 0, 1},
        AluCase{Opcode::Loop, 10, 10, 0, 0},
        AluCase{Opcode::Nop, 9, 9, 9, 0}));

TEST(NonlinearEval, SqrtFixMatchesIntegerSqrt)
{
    Rng rng(77);
    for (int i = 0; i < 200; ++i) {
        Word x = static_cast<Word>(rng.nextBounded(1 << 30));
        Word r = evalOp(Opcode::SqrtFix, x);
        // r^2 <= x < (r+1)^2.
        EXPECT_LE(static_cast<std::int64_t>(r) * r, x);
        EXPECT_GT((static_cast<std::int64_t>(r) + 1) * (r + 1), x);
    }
    EXPECT_EQ(evalOp(Opcode::SqrtFix, 0), 0);
    EXPECT_EQ(evalOp(Opcode::SqrtFix, -5), 0);
}

TEST(NonlinearEval, SigmoidFixSaturatesAndIsMonotone)
{
    const Word one = 1 << 16;
    EXPECT_EQ(evalOp(Opcode::SigmoidFix, 10 << 16), one);
    EXPECT_EQ(evalOp(Opcode::SigmoidFix, -(10 << 16)), 0);
    // Midpoint: sigmoid(0) = 0.5.
    EXPECT_EQ(evalOp(Opcode::SigmoidFix, 0), one / 2);
    // Monotone non-decreasing over a sweep.
    Word prev = 0;
    for (Word x = -(6 << 16); x <= (6 << 16); x += 1 << 12) {
        Word y = evalOp(Opcode::SigmoidFix, x);
        EXPECT_GE(y, prev) << "x=" << x;
        EXPECT_GE(y, 0);
        EXPECT_LE(y, one);
        prev = y;
    }
}

TEST(NonlinearEval, Log2FixTracksExactPowers)
{
    // log2 of 2^k in Q16.16 is (k-16)<<16 for inputs 2^k
    // interpreted as Q16.16 values of 2^(k-16).
    for (int k = 17; k < 30; ++k) {
        Word x = 1 << k;
        Word y = evalOp(Opcode::Log2Fix, x);
        EXPECT_NEAR(static_cast<double>(y) / 65536.0,
                    k - 16, 0.01)
            << "k=" << k;
    }
}

TEST(NonlinearEval, Log2FixMonotone)
{
    Word prev = evalOp(Opcode::Log2Fix, 1);
    for (Word x = 2; x < (1 << 20); x = x * 3 / 2 + 1) {
        Word y = evalOp(Opcode::Log2Fix, x);
        EXPECT_GE(y, prev) << "x=" << x;
        prev = y;
    }
}

TEST(EvalDeath, MemoryOpsHaveNoPureEvaluation)
{
    EXPECT_DEATH(evalOp(Opcode::Load, 0), "no pure evaluation");
    EXPECT_DEATH(evalOp(Opcode::Store, 0, 1), "no pure evaluation");
}

TEST(EvalProperty, CommutativeOpsCommute)
{
    Rng rng(5);
    const Opcode commutative[] = {Opcode::Add, Opcode::Mul,
                                  Opcode::And, Opcode::Or,
                                  Opcode::Xor, Opcode::Min,
                                  Opcode::Max};
    for (int i = 0; i < 200; ++i) {
        Word a = static_cast<Word>(rng.next64());
        Word b = static_cast<Word>(rng.next64());
        for (Opcode op : commutative)
            EXPECT_EQ(evalOp(op, a, b), evalOp(op, b, a))
                << opName(op);
    }
}

TEST(EvalProperty, CompareTrichotomy)
{
    Rng rng(6);
    for (int i = 0; i < 200; ++i) {
        Word a = static_cast<Word>(rng.nextRange(-1000, 1000));
        Word b = static_cast<Word>(rng.nextRange(-1000, 1000));
        int sum = evalOp(Opcode::CmpLt, a, b) +
                  evalOp(Opcode::CmpEq, a, b) +
                  evalOp(Opcode::CmpGt, a, b);
        EXPECT_EQ(sum, 1);
    }
}

TEST(EvalProperty, OverflowWrapsLikeTwosComplement)
{
    // Every ALU firing and every compile-time constant fold goes
    // through evalOp, so no operand pair may trap (INT_MIN / -1
    // raises SIGFPE on x86) or overflow a signed int.
    const Word min = std::numeric_limits<Word>::min();
    EXPECT_EQ(evalOp(Opcode::Div, min, -1), min);
    EXPECT_EQ(evalOp(Opcode::Rem, min, -1), 0);
    EXPECT_EQ(evalOp(Opcode::Neg, min), min);
    EXPECT_EQ(evalOp(Opcode::Abs, min), min);
    EXPECT_EQ(evalOp(Opcode::Div, 7, -1), -7);
    EXPECT_EQ(evalOp(Opcode::Rem, 7, -1), 0);
    EXPECT_EQ(evalOp(Opcode::Div, -7, 2), -3);
    EXPECT_EQ(evalOp(Opcode::Rem, -7, 2), -1);
}

} // namespace
} // namespace marionette

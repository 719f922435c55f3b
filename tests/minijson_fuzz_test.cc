/**
 * @file
 * Fuzz-style robustness tests for the minijson parser: deterministic
 * byte mutations of valid documents, pathological nesting, and typed
 * error offsets. The contract under test: any byte string either
 * parses to a DOM or throws JsonParseError — never a crash, hang or
 * stack overflow. CI additionally runs this suite under ASan+UBSan.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "dse/minijson.hh"

namespace cicero::dse {
namespace {

const char kValidDoc[] =
    R"({"name": "sweep-a", "iters": 32, "scale": 0.75,)"
    R"( "flags": [true, false, null],)"
    R"( "nested": {"keys": ["a", "b\nc", "\u0041\u00e9"],)"
    R"( "neg": -12, "exp": 1.5e3},)"
    R"( "empty_obj": {}, "empty_arr": []})";

TEST(MiniJsonFuzzTest, ValidDocumentParses)
{
    JsonValue doc = parseJson(kValidDoc);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("name")->asString("name"), "sweep-a");
    EXPECT_EQ(doc.find("iters")->asU64("iters"), 32u);
    EXPECT_EQ(doc.find("flags")->asArray("flags").size(), 3u);
    const JsonValue *nested = doc.find("nested");
    ASSERT_NE(nested, nullptr);
    EXPECT_EQ(nested->find("exp")->asNumber("exp"), 1500.0);
    EXPECT_EQ(nested->find("keys")->asArray("keys")[2].str,
              "A\xc3\xa9"); // \u0041 \u00e9 -> UTF-8
}

TEST(MiniJsonFuzzTest, DeepNestingFailsTypedNotByStackOverflow)
{
    // Under the cap: fine.
    std::string ok(100, '[');
    ok += "1";
    ok += std::string(100, ']');
    EXPECT_NO_THROW(parseJson(ok));

    // Past the cap: typed rejection, not a stack overflow. 100k levels
    // would smash the stack without the depth guard.
    for (std::size_t depth : {kJsonMaxDepth + 1, std::size_t(100000)}) {
        std::string deep(depth, '[');
        deep += "1";
        deep += std::string(depth, ']');
        EXPECT_THROW(parseJson(deep), JsonParseError) << depth;

        std::string deepObj;
        for (std::size_t i = 0; i < depth; ++i)
            deepObj += "{\"k\":";
        deepObj += "1";
        deepObj += std::string(depth, '}');
        EXPECT_THROW(parseJson(deepObj), JsonParseError) << depth;
    }
}

TEST(MiniJsonFuzzTest, ByteMutationFuzzThrowsTypedOrParses)
{
    // Deterministic LCG so any failure reproduces exactly.
    std::uint64_t rng = 0x243f6a8885a308d3ull;
    auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };

    const std::string clean = kValidDoc;
    for (int iter = 0; iter < 2000; ++iter) {
        std::string fuzzed = clean;
        const int edits = 1 + static_cast<int>(next() % 4);
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = next() % fuzzed.size();
            switch (next() % 3) {
            case 0: // flip
                fuzzed[pos] = static_cast<char>(
                    fuzzed[pos] ^ static_cast<char>(1 + next() % 255));
                break;
            case 1: // delete
                fuzzed.erase(pos, 1);
                break;
            default: // insert a random byte
                fuzzed.insert(pos, 1,
                              static_cast<char>(next() % 256));
                break;
            }
            if (fuzzed.empty())
                fuzzed = "x";
        }
        try {
            (void)parseJson(fuzzed);
        } catch (const JsonParseError &e) {
            // Typed, and the offset points inside (or just past) the
            // document.
            EXPECT_LE(e.offset(), fuzzed.size()) << "iter " << iter;
        }
        // Any other escape fails the test.
    }
}

TEST(MiniJsonFuzzTest, TruncationsOfValidDocAreTyped)
{
    const std::string clean = kValidDoc;
    for (std::size_t keep = 0; keep < clean.size(); ++keep) {
        const std::string cut = clean.substr(0, keep);
        EXPECT_THROW(parseJson(cut), JsonParseError) << "keep " << keep;
    }
}

TEST(MiniJsonFuzzTest, ErrorOffsetPointsAtTheProblem)
{
    try {
        parseJson(R"({"a":})");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_EQ(e.offset(), 5u);
        EXPECT_NE(std::string(e.what()).find("byte 5"),
                  std::string::npos);
    }

    try {
        parseJson("[1, 2,, 3]");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_EQ(e.offset(), 6u);
    }

    // Trailing garbage after a complete document is an error too.
    EXPECT_THROW(parseJson("{} x"), JsonParseError);
}

TEST(MiniJsonFuzzTest, HostileScalarsAreTyped)
{
    for (const char *doc : {
             "",           // empty input
             "  ",         // whitespace only
             "\"unterminated",
             "\"bad \\q escape\"",
             "\"\\u12\"",  // short unicode escape
             "01",         // leading zero
             "1.",         // dangling fraction
             "1e",         // dangling exponent
             "-",          // lone sign
             "+1",         // plus sign not allowed
             "tru",        // truncated keyword
             "nulll",      // trailing garbage fused to keyword
             "{\"a\" 1}",  // missing colon
             "{1: 2}",     // non-string key
             "[1 2]",      // missing comma
             "\x80\xff",   // raw high bytes
         }) {
        EXPECT_THROW(parseJson(doc), JsonParseError) << "doc: " << doc;
    }
}

TEST(MiniJsonFuzzTest, EscapeRoundTripsEveryAsciiByte)
{
    // jsonEscape output embedded in a string literal parses back to
    // the original bytes, and carries no raw control character (strict
    // parsers such as Python's json reject those).
    auto roundTrip = [](const std::string &raw) {
        const std::string escaped = jsonEscape(raw);
        for (char c : escaped)
            EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
                << "raw control byte in escape of byte "
                << static_cast<int>(static_cast<unsigned char>(raw[0]));
        EXPECT_EQ(parseJson("\"" + escaped + "\"").str, raw);
    };
    std::string all;
    for (int b = 0x01; b <= 0x7F; ++b) {
        roundTrip(std::string(1, static_cast<char>(b)));
        all += static_cast<char>(b);
    }
    roundTrip(all);
    roundTrip("\"quoted\" \\back\\slashed\\\" \\\\");
    roundTrip("lego\n\x01");
}

} // namespace
} // namespace cicero::dse

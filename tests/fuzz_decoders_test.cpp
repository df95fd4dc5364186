// Fuzz-lite robustness suite: every decoder in the library is fed
// random byte strings and mutated valid streams. The contract under
// test: decoders either succeed or throw StoreError — never crash,
// hang, or read out of bounds. (Run under ASan/UBSan for full effect;
// the assertions here catch the exception-contract half.)
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "compress/huffman.h"
#include "compress/lz77.h"
#include "compress/webgraph.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/graph.h"

namespace hetsim {
namespace {

std::string random_bytes(common::Rng& rng, std::size_t max_len) {
  std::string s;
  const std::size_t len = rng.bounded(max_len + 1);
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.bounded(256)));
  }
  return s;
}

/// Run `decode` on the input; pass if it returns or throws StoreError.
template <typename F>
::testing::AssertionResult tolerates(F&& decode, const std::string& input) {
  try {
    decode(input);
    return ::testing::AssertionSuccess();
  } catch (const common::StoreError&) {
    return ::testing::AssertionSuccess();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure()
           << "unexpected exception type: " << e.what();
  }
}

class FuzzDecoders : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  common::Rng rng_{GetParam()};
};

TEST_P(FuzzDecoders, Lz77ToleratesGarbage) {
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(tolerates(
        [](const std::string& s) { (void)compress::lz77_decompress(s); },
        random_bytes(rng_, 256)));
  }
}

TEST_P(FuzzDecoders, Lz77ToleratesTruncationAndMutation) {
  std::string input;
  for (int i = 0; i < 300; ++i) input += "abcabcXYZ";
  const std::string valid = compress::lz77_compress(input);
  for (int i = 0; i < 100; ++i) {
    std::string bad = valid.substr(0, rng_.bounded(valid.size()));
    EXPECT_TRUE(tolerates(
        [](const std::string& s) { (void)compress::lz77_decompress(s); },
        bad));
    std::string mutated = valid;
    mutated[rng_.bounded(mutated.size())] =
        static_cast<char>(rng_.bounded(256));
    EXPECT_TRUE(tolerates(
        [](const std::string& s) { (void)compress::lz77_decompress(s); },
        mutated));
  }
}

TEST_P(FuzzDecoders, HuffmanToleratesGarbage) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(tolerates(
        [](const std::string& s) { (void)compress::huffman_decompress(s); },
        random_bytes(rng_, 512)));
  }
  // Mutated valid stream.
  const std::string valid = compress::huffman_compress("hello hello hello");
  for (int i = 0; i < 100; ++i) {
    std::string mutated = valid;
    mutated[rng_.bounded(mutated.size())] =
        static_cast<char>(rng_.bounded(256));
    EXPECT_TRUE(tolerates(
        [](const std::string& s) { (void)compress::huffman_decompress(s); },
        mutated));
  }
}

TEST_P(FuzzDecoders, DatasetPayloadsTolerateGarbage) {
  for (int i = 0; i < 200; ++i) {
    const std::string input = random_bytes(rng_, 128);
    EXPECT_TRUE(tolerates(
        [](const std::string& s) { (void)data::decode_items(s); }, input));
    EXPECT_TRUE(tolerates(
        [](const std::string& s) { (void)data::decode_tree(s); }, input));
  }
}

TEST_P(FuzzDecoders, WebGraphToleratesGarbage) {
  // Crafted streams random bytes practically never produce: a gamma
  // prefix of 40 zeros (a degree near 2^40, far beyond the bits left),
  // one of 64 zeros (no such gamma code), and a residual whose zeta
  // prefix of 28 zeros would shift by h*k = 84.
  const std::string crafted[] = {
      std::string(5, '\0') + std::string(8, '\xff'),
      std::string(8, '\0') + std::string(16, '\xff'),
      std::string("\x50\0\0\0", 4) + std::string(8, '\xff'),
  };
  for (const std::uint32_t min_interval : {0U, 4U}) {
    compress::WebGraphCodecConfig cfg;
    cfg.min_interval = min_interval;
    const auto decoder = [&cfg](std::size_t num_lists) {
      return [&cfg, num_lists](const std::string& s) {
        (void)compress::decompress_adjacency(s, num_lists, cfg);
      };
    };
    for (const std::string& input : crafted) {
      EXPECT_TRUE(tolerates(decoder(1), input)) << "min_interval " << min_interval;
    }
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(tolerates(decoder(1 + rng_.bounded(8)), random_bytes(rng_, 128)))
          << "min_interval " << min_interval;
    }
  }
}

TEST_P(FuzzDecoders, WebGraphToleratesTruncationAndMutation) {
  data::WebGraphConfig gcfg;
  gcfg.num_vertices = 300;
  gcfg.seed = 5;
  const data::Graph g = data::generate_webgraph(gcfg);
  std::vector<std::vector<std::uint32_t>> lists;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    lists.emplace_back(nb.begin(), nb.end());
  }
  for (const std::uint32_t min_interval : {0U, 4U}) {
    compress::WebGraphCodecConfig cfg;
    cfg.min_interval = min_interval;
    const std::string valid = compress::compress_adjacency(lists, cfg);
    const auto decode = [&](const std::string& s) {
      (void)compress::decompress_adjacency(s, lists.size(), cfg);
    };
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(tolerates(decode, valid.substr(0, rng_.bounded(valid.size()))))
          << "min_interval " << min_interval;
      std::string mutated = valid;
      mutated[rng_.bounded(mutated.size())] =
          static_cast<char>(rng_.bounded(256));
      EXPECT_TRUE(tolerates(decode, mutated)) << "min_interval " << min_interval;
      // A zeroed span turns whatever code it lands in into a run of 64
      // zero bits: a huge or impossible gamma/zeta prefix.
      std::string zeroed = valid;
      zeroed.replace(rng_.bounded(zeroed.size()), 8, 8, '\0');
      EXPECT_TRUE(tolerates(decode, zeroed)) << "min_interval " << min_interval;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecoders,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace hetsim

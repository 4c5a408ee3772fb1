#include "serve/canonical.h"

#include "core/miner_options.h"
#include "util/digest.h"

namespace pgm {

std::string CanonicalConfigString(const std::string& algorithm,
                                  const MinerConfig& config) {
  // MinerOptions() is sorted by field and "algorithm" sorts before every
  // field, so one pass over the keyed rows emits the keys in order.
  std::string out = "algorithm=" + algorithm + ";";
  for (const MinerOption& option : MinerOptions()) {
    if (!option.cache_key) continue;
    out.append(option.field);
    out.push_back('=');
    option.render(config, OptionText::kExact, &out);
    out.push_back(';');
  }
  return out;
}

std::uint64_t SequenceDigest(const Sequence& sequence) {
  Digest64 digest;
  digest.Update(sequence.alphabet().symbols());
  digest.UpdateU64(sequence.alphabet().case_insensitive() ? 1 : 0);
  digest.UpdateU64(sequence.size());
  if (!sequence.symbols().empty()) {
    static_assert(sizeof(Symbol) == 1,
                  "SequenceDigest hashes the symbol array as raw bytes");
    digest.Update(sequence.symbols().data(), sequence.symbols().size());
  }
  return digest.value();
}

std::string CacheKey(const Sequence& sequence, const std::string& algorithm,
                     const MinerConfig& config) {
  return DigestToHex(SequenceDigest(sequence)) + ":" +
         DigestToHex(Fnv1a64(CanonicalConfigString(algorithm, config)));
}

}  // namespace pgm

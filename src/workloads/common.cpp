#include "workloads/common.hpp"

#include <cmath>

#include "support/fnv.hpp"

namespace wp::workloads {

namespace {

u64 seedFor(const std::string& workload, InputSize size,
            u64 experiment_seed) {
  // FNV-1a over the name, salted by the input size and the experiment
  // seed (seed 0 leaves the hash — and thus the inputs — unchanged).
  const u64 h = fnv1a(workload);
  return mixSeed(h ^ (size == InputSize::kSmall ? 0x5eedULL : 0x1a56eULL),
                 experiment_seed);
}

}  // namespace

std::vector<u8> randomBytes(const std::string& workload, InputSize size,
                            std::size_t count, u64 experiment_seed) {
  Rng rng(seedFor(workload, size, experiment_seed));
  std::vector<u8> out(count);
  for (auto& b : out) b = static_cast<u8>(rng.next());
  return out;
}

std::vector<u32> randomWords(const std::string& workload, InputSize size,
                             std::size_t count, u64 experiment_seed) {
  Rng rng(seedFor(workload, size, experiment_seed));
  std::vector<u32> out(count);
  for (auto& w : out) w = rng.next32();
  return out;
}

std::vector<u8> randomText(const std::string& workload, InputSize size,
                           std::size_t count, u64 experiment_seed) {
  Rng rng(seedFor(workload, size, experiment_seed) ^ 0x7e47ULL);
  std::vector<u8> out;
  out.reserve(count);
  while (out.size() < count) {
    const u64 len = 2 + rng.below(9);
    for (u64 i = 0; i < len && out.size() < count; ++i) {
      out.push_back(static_cast<u8>('a' + rng.below(26)));
    }
    if (out.size() < count) out.push_back(' ');
  }
  return out;
}

std::vector<u8> syntheticImage(const std::string& workload, InputSize size,
                               u32 width, u32 height, u64 experiment_seed) {
  Rng rng(seedFor(workload, size, experiment_seed) ^ 0x1316eULL);
  std::vector<u8> img(static_cast<std::size_t>(width) * height);
  const double fx = 2.0 * 3.14159265358979 / width * (1 + rng.below(3));
  const double fy = 2.0 * 3.14159265358979 / height * (1 + rng.below(3));
  for (u32 y = 0; y < height; ++y) {
    for (u32 x = 0; x < width; ++x) {
      const double base =
          128.0 + 60.0 * std::sin(fx * x) * std::cos(fy * y) +
          40.0 * ((x + y) % 64) / 64.0;
      const double noise = static_cast<double>(rng.below(17)) - 8.0;
      double v = base + noise;
      if (v < 0) v = 0;
      if (v > 255) v = 255;
      img[static_cast<std::size_t>(y) * width + x] = static_cast<u8>(v);
    }
  }
  return img;
}

std::vector<i16> syntheticAudio(const std::string& workload, InputSize size,
                                std::size_t samples, u64 experiment_seed) {
  Rng rng(seedFor(workload, size, experiment_seed) ^ 0xaad10ULL);
  std::vector<i16> out(samples);
  double phase1 = rng.unit() * 6.28, phase2 = rng.unit() * 6.28;
  const double f1 = 0.01 + rng.unit() * 0.05;
  const double f2 = 0.002 + rng.unit() * 0.01;
  for (std::size_t i = 0; i < samples; ++i) {
    const double env = 0.4 + 0.6 * std::fabs(std::sin(f2 * i + phase2));
    const double v = 12000.0 * env * std::sin(f1 * i + phase1) +
                     (static_cast<double>(rng.below(401)) - 200.0);
    out[i] = static_cast<i16>(v);
  }
  return out;
}

}  // namespace wp::workloads

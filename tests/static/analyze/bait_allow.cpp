// Bait for the allow-marker mechanism (tools/analyze/codslint/registry.py).
//
// Justified suppressions (finding fires, marker with a reason absorbs
// it — the self-test asserts the suppressed list is non-empty), one of
// them on a preprocessor line, and one reasonless marker, which must
// surface as its own finding: suppression debt is never silent.

#include <cstdlib>
#include <ctime>
#include <shared_mutex>  // codslint-allow(blocking): bait demo on a directive

namespace bait_allow {

struct Seeder {
  long wall_seed() {
    // codslint-allow(clock): bait corpus demo of a justified exception
    return static_cast<long>(time(nullptr));
  }
  int lazy_seed() {
    return rand();  // codslint-allow(clock) codslint-expect(clock)
  }
};

}  // namespace bait_allow

#include "dora/action.h"

#include "dora/arena.h"

namespace doradb {
namespace dora {

void DoraTxn::Unref() {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Standalone contexts (tests) are owned by their creator; pooled ones
    // go back to their arena for the next BeginTxn.
    if (home_ != nullptr) home_->Recycle(this);
  }
}

}  // namespace dora
}  // namespace doradb

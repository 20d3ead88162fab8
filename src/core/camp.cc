#include "core/camp.h"

#include <stdexcept>

namespace camp::core {

void CampConfig::validate() const {
  if (capacity_bytes == 0) {
    throw std::invalid_argument("CampConfig: capacity_bytes must be > 0");
  }
  if (precision < 1) {
    throw std::invalid_argument("CampConfig: precision must be >= 1");
  }
}

std::unique_ptr<policy::ICache> make_camp(CampConfig config) {
  return std::make_unique<CampCache>(config);
}

}  // namespace camp::core

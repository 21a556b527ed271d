#include "app/state.hpp"

#include <stdexcept>

namespace vdg {

int StateVector::addSlot(std::string name, Field field) {
  if (indexOf(name) >= 0)
    throw std::invalid_argument("StateVector::addSlot: duplicate slot name '" + name + "'");
  names_.push_back(std::move(name));
  fields_.push_back(std::move(field));
  return numSlots() - 1;
}

int StateVector::indexOf(const std::string& name) const {
  for (int i = 0; i < numSlots(); ++i)
    if (names_[static_cast<std::size_t>(i)] == name) return i;
  return -1;
}

Field& StateVector::slot(const std::string& name) {
  const int i = indexOf(name);
  if (i < 0) throw std::out_of_range("StateVector: no slot named '" + name + "'");
  return slot(i);
}

const Field& StateVector::slot(const std::string& name) const {
  const int i = indexOf(name);
  if (i < 0) throw std::out_of_range("StateVector: no slot named '" + name + "'");
  return slot(i);
}

StateView StateVector::view() {
  StateView v;
  v.fields.reserve(fields_.size());
  for (Field& f : fields_) v.fields.push_back(&f);
  return v;
}

StateVector StateVector::zerosLike() const {
  StateVector out;
  for (int i = 0; i < numSlots(); ++i) {
    const Field& f = slot(i);
    out.addSlot(slotName(i), Field(f.grid(), f.ncomp(), f.nghost()));
  }
  return out;
}

void StateVector::setZero() {
  for (Field& f : fields_) f.setZero();
}

void StateVector::copyFrom(const StateVector& other) {
  for (int i = 0; i < numSlots(); ++i) slot(i).copyFrom(other.slot(i));
}

void StateVector::combine(double a, const StateVector& x, double b, const StateVector& y) {
  for (int i = 0; i < numSlots(); ++i) slot(i).combine(a, x.slot(i), b, y.slot(i));
}

void StateVector::lincomb3(double a, const StateVector& x, double b, const StateVector& y,
                           double c, const StateVector& z) {
  for (int i = 0; i < numSlots(); ++i)
    slot(i).lincomb3(a, x.slot(i), b, y.slot(i), c, z.slot(i));
}

}  // namespace vdg

#pragma once
// The simulation state as a named collection of DG coefficient fields.
//
// A StateVector owns one Field per "slot": one phase-space distribution
// function per species (slot name = species name) plus, by convention, the
// configuration-space EM field under the reserved name "em". The steppers
// (app/simulation.hpp) treat a StateVector as an element of a vector space
// — combine/lincomb3 act slot-by-slot — while the Updater pipeline addresses
// individual slots through a StateView, a non-owning list of Field
// pointers sharing the owner's slot order.

#include <string>
#include <vector>

#include "grid/grid.hpp"

namespace vdg {

/// Non-owning view of a StateVector's slots (same indices as the owner).
/// Fields are mutable through the view: RHS evaluation writes them, and
/// boundary updaters sync ghost layers of input states in place.
struct StateView {
  std::vector<Field*> fields;

  [[nodiscard]] int numSlots() const { return static_cast<int>(fields.size()); }
  [[nodiscard]] Field& operator[](int i) { return *fields[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const Field& operator[](int i) const {
    return *fields[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] Field& slot(int i) const { return *fields[static_cast<std::size_t>(i)]; }
};

class StateVector {
 public:
  /// Reserved slot name for the EM field.
  static constexpr const char* kEmSlot = "em";

  StateVector() = default;

  /// Append a slot; returns its index. Names must be unique.
  int addSlot(std::string name, Field field);

  [[nodiscard]] int numSlots() const { return static_cast<int>(fields_.size()); }
  [[nodiscard]] const std::string& slotName(int i) const {
    return names_[static_cast<std::size_t>(i)];
  }
  /// Index of a named slot, or -1 if absent.
  [[nodiscard]] int indexOf(const std::string& name) const;

  [[nodiscard]] Field& slot(int i) { return fields_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const Field& slot(int i) const { return fields_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] Field& slot(const std::string& name);
  [[nodiscard]] const Field& slot(const std::string& name) const;

  /// View aliasing every slot (valid until slots are added or the vector
  /// is destroyed/moved).
  [[nodiscard]] StateView view();

  /// A StateVector with the same slot names/shapes, zero-initialized.
  [[nodiscard]] StateVector zerosLike() const;

  // Vector-space operations, applied slot-by-slot (shapes must match).
  void setZero();
  void copyFrom(const StateVector& other);
  /// this = a*x + b*y.
  void combine(double a, const StateVector& x, double b, const StateVector& y);
  /// this = (a*x + b*y) + c*z (Field::lincomb3): an RK stage's combine
  /// plus axpy in one pass over each slot.
  void lincomb3(double a, const StateVector& x, double b, const StateVector& y, double c,
                const StateVector& z);

 private:
  std::vector<std::string> names_;
  std::vector<Field> fields_;
};

}  // namespace vdg

#include "relation/value.h"

#include <charconv>
#include <cmath>
#include <functional>

#include "common/strings.h"

namespace incognito {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

std::string Value::ToString() const {
  if (is_null()) return "";
  if (is_int64()) return StringPrintf("%lld", static_cast<long long>(int64()));
  if (is_double()) {
    // Integral doubles render as "3.0"; every other double in the
    // shortest form that parses back to the same bits. Either way the
    // text never reads as an integer, so a double column stays double.
    double d = dbl();
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      return StringPrintf("%.1f", d);
    }
    char buf[64];
    char* end = std::to_chars(buf, buf + sizeof(buf), d).ptr;
    std::string out(buf, end);
    if (out.find_first_not_of("-0123456789") == std::string::npos) {
      out += ".0";
    }
    return out;
  }
  return str();
}

namespace {

/// Rank used to order values of different types: NULL < numeric < string.
int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_int64() || v.is_double()) return 1;
  return 2;
}

double AsDouble(const Value& v) {
  return v.is_int64() ? static_cast<double>(v.int64()) : v.dbl();
}

bool IsNaN(const Value& v) { return v.is_double() && std::isnan(v.dbl()); }

}  // namespace

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  int ra = TypeRank(*this), rb = TypeRank(other);
  if (ra != rb) return false;
  if (ra == 1) {
    if (is_int64() && other.is_int64()) return int64() == other.int64();
    if (IsNaN(*this) || IsNaN(other)) return IsNaN(*this) && IsNaN(other);
    return AsDouble(*this) == AsDouble(other);
  }
  return str() == other.str();
}

bool Value::operator<(const Value& other) const {
  int ra = TypeRank(*this), rb = TypeRank(other);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // NULL == NULL
  if (ra == 1) {
    if (is_int64() && other.is_int64()) return int64() < other.int64();
    // Every NaN is one value, ordered after all numbers.
    if (IsNaN(*this) || IsNaN(other)) return !IsNaN(*this);
    return AsDouble(*this) < AsDouble(other);
  }
  return str() < other.str();
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_int64()) return std::hash<int64_t>()(int64());
  if (is_double()) {
    double d = dbl();
    if (std::isnan(d)) return 0x7ff8000000000000ULL;  // every NaN payload
    // Hash integral doubles like the equivalent int64 so that mixed-type
    // equality (1 == 1.0) implies equal hashes.
    if (d == std::floor(d) && std::abs(d) < 9.2e18) {
      return std::hash<int64_t>()(static_cast<int64_t>(d));
    }
    return std::hash<double>()(d);
  }
  return std::hash<std::string>()(str());
}

}  // namespace incognito

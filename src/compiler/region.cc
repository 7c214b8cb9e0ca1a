#include "compiler/region.h"

#include <sstream>

namespace marionette
{

void
Region::forEach(const std::function<void(const Region &)> &fn) const
{
    fn(*this);
    for (const Region &c : children)
        c.forEach(fn);
    for (const Region &c : elseChildren)
        c.forEach(fn);
}

void
Region::forEach(const std::function<void(Region &)> &fn)
{
    fn(*this);
    for (Region &c : children)
        c.forEach(fn);
    for (Region &c : elseChildren)
        c.forEach(fn);
}

std::string
Region::summary(const Cdfg &cdfg) const
{
    std::ostringstream out;
    switch (kind) {
      case RegionKind::Block:
        out << "'" << cdfg.block(block).name << "'";
        return out.str();
      case RegionKind::CountedLoop:
        out << (geometric ? "geometric" : "counted") << " '"
            << headerName << "'";
        break;
      case RegionKind::WhileLoop:
        out << "while '" << headerName << "'";
        break;
      case RegionKind::Cond:
        out << "cond '" << cdfg.block(pred).name << "'";
        break;
      case RegionKind::Seq:
        out << "seq";
        break;
    }
    if (!children.empty()) {
        out << " [";
        bool first = true;
        for (const Region &c : children) {
            if (!first)
                out << ", ";
            first = false;
            out << c.summary(cdfg);
        }
        out << "]";
    }
    return out.str();
}

} // namespace marionette

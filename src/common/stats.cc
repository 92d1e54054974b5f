#include "common/stats.hh"

namespace fuse
{

StatGroup::Scalar &
StatGroup::scalar(const std::string &name)
{
    return scalars_[name];
}

StatGroup::Average &
StatGroup::average(const std::string &name)
{
    return averages_[name];
}

double
StatGroup::get(const std::string &name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second.value();
}

bool
StatGroup::has(const std::string &name) const
{
    return scalars_.count(name) != 0;
}

const StatGroup::Average *
StatGroup::findAverage(const std::string &name) const
{
    auto it = averages_.find(name);
    return it == averages_.end() ? nullptr : &it->second;
}

void
StatGroup::merge(const StatGroup &other)
{
    for (const auto &[name, s] : other.scalars_)
        scalars_[name].merge(s);
    for (const auto &[name, a] : other.averages_)
        averages_[name].merge(a);
}

void
StatGroup::reset()
{
    for (auto &[name, s] : scalars_)
        s.reset();
    for (auto &[name, a] : averages_)
        a.reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[name, s] : scalars_)
        os << name_ << "." << name << " " << s.value() << "\n";
    for (const auto &[name, a] : averages_)
        os << name_ << "." << name << " " << a.mean()
           << " (n=" << a.count() << ")\n";
}

} // namespace fuse

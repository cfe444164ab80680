#include "sim/kernel_config.hh"

namespace dcmbqc
{

namespace
{

SimKernelConfig
defaults()
{
    SimKernelConfig config;
    config.packedTableau = true;
    config.liveWindow = true;
    config.svKernel = SvKernel::Auto;
    return config;
}

} // namespace

SimKernelConfig &
simKernelConfig()
{
    static SimKernelConfig config = defaults();
    return config;
}

void
resetSimKernelConfig()
{
    simKernelConfig() = defaults();
}

} // namespace dcmbqc

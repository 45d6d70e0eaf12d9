#include "transfer.hh"

#include "common/logging.hh"

namespace qmh {
namespace net {

std::string
encodingLabel(const Encoding &enc)
{
    return ecc::Code::byKind(enc.code).shortName() + "-L" +
           std::to_string(enc.level);
}

TransferNetwork::TransferNetwork(const iontrap::Params &params)
    : _params(params)
{
}

double
TransferNetwork::transferTime(const Encoding &src,
                              const Encoding &dst) const
{
    if (src == dst)
        return 0.0;
    const auto src_code = ecc::Code::byKind(src.code);
    const auto dst_code = ecc::Code::byKind(dst.code);
    return src_ec_equivalents * src_code.ecTime(src.level, _params) +
           dst_ec_equivalents * dst_code.ecTime(dst.level, _params);
}

double
TransferNetwork::level2To1ChannelTime(const ecc::Code &code) const
{
    return transferTime({code.kind(), 2}, {code.kind(), 1}) *
           code.transferChannelCost();
}

std::vector<std::vector<double>>
TransferNetwork::latencyMatrix(
    const std::vector<Encoding> &encodings) const
{
    std::vector<std::vector<double>> matrix;
    matrix.reserve(encodings.size());
    for (const auto &src : encodings) {
        std::vector<double> row;
        row.reserve(encodings.size());
        for (const auto &dst : encodings)
            row.push_back(transferTime(src, dst));
        matrix.push_back(std::move(row));
    }
    return matrix;
}

} // namespace net
} // namespace qmh

/// \file sql_min_mapper.h
/// \brief MySQL-Min: the Min mapper (nosql_min_mapper.h) over sql::SqlEngine
/// — the NoSQL-Min layout expressed relationally, with no secondary index.

#ifndef SCDWARF_MAPPER_SQL_MIN_MAPPER_H_
#define SCDWARF_MAPPER_SQL_MIN_MAPPER_H_

#include "mapper/nosql_min_mapper.h"

namespace scdwarf::mapper {

using SqlMinMapper = MinMapper<sql::SqlEngine>;

}  // namespace scdwarf::mapper

#endif  // SCDWARF_MAPPER_SQL_MIN_MAPPER_H_

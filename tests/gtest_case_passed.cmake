# Passes iff the googletest XML report REPORT (--gtest_output=xml) records
# test TEST (Suite.Case) as run to completion without a failure:
#   cmake -DREPORT=report.xml -DTEST=Suite.Case -P gtest_case_passed.cmake
if(NOT EXISTS "${REPORT}")
  message(FATAL_ERROR "no googletest report at ${REPORT}")
endif()
file(READ "${REPORT}" report)
string(REPLACE "." ";" parts "${TEST}")
list(GET parts 0 suite)
list(GET parts 1 case)
# The case's element runs from its <testcase tag up to the next one.
string(FIND "${report}" "<testcase name=\"${case}\"" begin)
if(begin EQUAL -1)
  message(FATAL_ERROR "${TEST} is not in ${REPORT}")
endif()
string(SUBSTRING "${report}" ${begin} -1 element)
string(SUBSTRING "${element}" 1 -1 after)
string(FIND "${after}" "<testcase " next)
if(NOT next EQUAL -1)
  math(EXPR length "${next} + 1")
  string(SUBSTRING "${element}" 0 ${length} element)
endif()
if(NOT element MATCHES "classname=\"${suite}\"" OR
   NOT element MATCHES "result=\"completed\"" OR element MATCHES "<failure")
  message(FATAL_ERROR "${TEST} did not pass:\n${element}")
endif()

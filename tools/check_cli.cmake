# Runs one `bsr` command and checks its exact exit code and its stdout, for
# the legs where WILL_FAIL (any nonzero exit) is too weak: a canary must
# fail with findings (exit 1), not with a usage or internal error (2), and
# name the rule that caught it. Invoked by the bsr_cli_check ctests with
# -DBSR=<bsr binary> -DARGS=<arguments> -DEXIT=<code> -DEXPECT=<regexes>,
# ARGS and EXPECT being `;`-separated lists.
execute_process(COMMAND ${BSR} ${ARGS} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
message("${out}")
list(JOIN ARGS " " cmd)
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "'bsr ${cmd}' exited ${rc}, expected ${EXIT}")
endif()
foreach(re IN LISTS EXPECT)
  if(NOT out MATCHES "${re}")
    message(FATAL_ERROR "output of 'bsr ${cmd}' does not match '${re}'")
  endif()
endforeach()

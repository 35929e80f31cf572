# Warning policy for first-party targets. Third-party code (googletest)
# is exempted where it is imported.
option(TOKA_WERROR "Treat warnings as errors" ON)

add_compile_options(-Wall -Wextra)
if(TOKA_WERROR)
  add_compile_options(-Werror)
endif()

# Optional sanitizer build for local debugging and the CI sanitizer job:
#   cmake -B build-asan -S . -DTOKA_SANITIZE=address,undefined
set(TOKA_SANITIZE "" CACHE STRING
    "Comma-separated sanitizers to enable (e.g. address,undefined)")
if(TOKA_SANITIZE)
  add_compile_options(-fsanitize=${TOKA_SANITIZE} -fno-omit-frame-pointer)
  add_link_options(-fsanitize=${TOKA_SANITIZE})
  # UBSan's reports are fatal: the process that hits one aborts, so its
  # test fails instead of printing the report and passing.
  if(",${TOKA_SANITIZE}," MATCHES ",undefined,")
    add_compile_options(-fno-sanitize-recover=undefined)
    add_link_options(-fno-sanitize-recover=undefined)
  endif()
endif()

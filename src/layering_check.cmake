# Include-layering check over the simulator sources:
#
#   cmake -DSRC=<src dir> -DLAYERS=<layers> -P layering_check.cmake
#
# LAYERS is EPI_LAYERS from src/CMakeLists.txt joined with ':' -- bottom-up
# "library=dir,dir,..." entries. Every `#include "dir/..."` under SRC may
# name only a directory of its own layer or of a lower one. The script
# fails naming file:line for each include that reaches up, and for any
# directory (including or included) that no layer owns.

if(NOT SRC OR NOT LAYERS)
  message(FATAL_ERROR "usage: cmake -DSRC=<dir> -DLAYERS=<lib=dir,...:...> -P layering_check.cmake")
endif()

string(REPLACE ":" ";" layers "${LAYERS}")
set(rank 0)
foreach(layer IN LISTS layers)
  string(REPLACE "=" ";" parts "${layer}")
  list(GET parts 0 lib)
  list(GET parts 1 dirs)
  string(REPLACE "," ";" dirs "${dirs}")
  foreach(dir IN LISTS dirs)
    set(rank_${dir} ${rank})
    set(lib_${dir} ${lib})
  endforeach()
  math(EXPR rank "${rank} + 1")
endforeach()

file(GLOB_RECURSE files RELATIVE "${SRC}" "${SRC}/*.hpp" "${SRC}/*.cpp")
list(SORT files)
set(errors "")
set(edges 0)
foreach(file IN LISTS files)
  string(REGEX MATCH "^[^/]+" from "${file}")
  if(NOT DEFINED rank_${from})
    list(APPEND errors "src/${file}: directory '${from}' belongs to no layer")
    continue()
  endif()
  file(READ "${SRC}/${file}" text)
  # Split on newlines only: neutralise the characters CMake lists treat
  # specially so each list element is exactly one source line.
  string(REPLACE "\\" "/" text "${text}")
  string(REPLACE ";" "," text "${text}")
  string(REPLACE "[" "(" text "${text}")
  string(REPLACE "]" ")" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(lineno 0)
  foreach(line IN LISTS lines)
    math(EXPR lineno "${lineno} + 1")
    if(NOT line MATCHES "^[ \t]*#[ \t]*include[ \t]*\"([A-Za-z0-9_]+)/")
      continue()
    endif()
    set(to "${CMAKE_MATCH_1}")
    math(EXPR edges "${edges} + 1")
    if(NOT DEFINED rank_${to})
      list(APPEND errors "src/${file}:${lineno}: includes '${to}/', which belongs to no layer")
    elseif(rank_${to} GREATER rank_${from})
      list(APPEND errors
           "src/${file}:${lineno}: ${from}/ (${lib_${from}}) includes ${to}/ from the higher layer ${lib_${to}}")
    endif()
  endforeach()
endforeach()

if(edges EQUAL 0)
  message(FATAL_ERROR "no #include \"dir/...\" lines found under ${SRC}")
endif()
if(errors)
  list(LENGTH errors n)
  string(REPLACE ";" "\n" report "${errors}")
  message(FATAL_ERROR "${n} layering violation(s):\n${report}")
endif()
list(LENGTH files nfiles)
message(STATUS "layering ok: ${edges} includes in ${nfiles} files, all downward")
